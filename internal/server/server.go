// Package server is the dynctrld daemon: a TCP service exposing
// (M,W)-Controller Submit/grant/reject semantics over the wire protocol of
// internal/wire, multiplexing any number of isolated tenant namespaces
// behind one process.
//
// Every tenant namespace owns a complete, private admission stack — tree,
// centralized unknown-U controller (Section 3 of the paper; one process
// holds the whole tree, so no move needs a message), and (with durability
// enabled) its own WAL+snapshot directory — so the
// paper's safety invariant (at most M permits granted, ever) is enforced
// per tenant across all of that tenant's connections, and no tenant's
// traffic can move another tenant's verdicts, counters, or recovery
// history. A connection binds to exactly one namespace in the Hello/
// Welcome handshake and can never address any other: there is no
// per-request tenant field to forge, and a Hello naming an unknown
// namespace is refused with a typed wire error (wire.CodeTenant). The
// namespaces are declared in one place, Config.Tenants, and read in one:
// Tenants returns a TenantView of each, which /metricsz renders.
//
// The controller serves one request at a time (Section 3: one agent per
// request), and a tenant says so with one mutex, tenant.mu: each
// connection coalesces the frames already buffered on its socket into one
// run (read-batching, which amortizes the protocol overhead under load) and
// executes it on its own goroutine under that lock (tenant.submit). Nothing
// else queues, combines or hands a run over; a scrape, a checkpoint and the
// drain take the same lock. On Linux both listeners are wire.Listen's
// syscall sockets, so the daemon links no package net and no libc, and a
// connection's bytes move by raw read(2) and write(2) calls, which the
// runtime hands no processor off around.
//
// With a WAL root configured (Config.WALDir) the daemon is durable: each
// tenant logs to its own subdirectory (WALDir/<tenant>), every decided
// batch is appended to that tenant's internal/persist write-ahead log,
// and a connection's Results frame is not written until the batch's
// records are fsynced — group commit, at most one fsync per run, usually
// amortized over many concurrent runs. On boot each tenant
// recovers independently: the latest snapshot is restored, the WAL tail
// is replayed (and verified) through a rebuilt controller, and the
// incarnation counter is bumped and surfaced in the Welcome frame and on
// /metricsz, so each tenant's (M,W) contract holds across process
// restarts, not just within one.
//
// In paranoid mode every tenant's submitter is additionally wrapped in
// the internal/oracle invariant checkers, so every request served over
// the network is re-checked against the paper's guarantees; violations
// are reported on /metricsz and in each TenantView.
//
// A plain-text /metricsz endpoint is served over HTTP on a second
// listener: process-wide aggregates first, then one fully labeled section
// per tenant ({tenant="name"} suffixes). The field-by-field reference
// lives in docs/OPERATIONS.md. Shutdown is graceful: the listener closes,
// connection read sides close, in-flight batches are drained and
// answered, and only then do the tenants refuse (wire.CodeShutdown),
// checkpoint and close.
//
// One file a responsibility: server.go (Config, Server, listeners), tenant.go
// (a tenant's stack, submit, TenantView, boot recovery), conn.go (handshake,
// serve loop, replies and the reject-wave frame), metrics.go, http.go (the
// metrics listener's HTTP/1.x responder and its routes).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"time"

	"dynctrl/internal/obs"
	"dynctrl/internal/wire"
)

// Config describes one daemon instance.
type Config struct {
	// Addr is the TCP listen address, "host:port" as wire.Listen takes it:
	// the host an IP literal, localhost or empty (every address), never
	// another name; port 0 picks a free one ("127.0.0.1:7700", ":0").
	Addr string
	// MetricsAddr is the HTTP listen address of the /metricsz endpoint, in
	// Addr's forms; empty disables it.
	MetricsAddr string

	// Tenants declares the namespaces this daemon serves, at least one.
	// Names must be unique and satisfy wire.ValidTenant; a client that
	// names none in its Hello binds to wire.DefaultTenant.
	Tenants []TenantConfig

	// Paranoid wraps every tenant's submitter in the internal/oracle
	// invariant checkers: every request served over the wire is re-checked
	// against that tenant's (M,W) contract.
	Paranoid bool

	// IdleTimeout, when positive, arms a rolling read deadline on every
	// connection: each frame, the Hello first, must complete within
	// IdleTimeout of the previous one (of the accept, for the Hello), so an
	// idle or byte-dribbling (slow-loris) peer is disconnected instead of
	// holding its goroutine, read buffer and tenant-stack reference
	// forever. Zero (the default) keeps connections undeadlined after the
	// handshake. The Hello never waits longer than defaultHandshakeTimeout.
	IdleTimeout time.Duration

	// WALDir enables the durability engine: each tenant logs decided
	// batches to WALDir/<tenant-name> and recovers from it on boot. Empty
	// runs in-memory only.
	WALDir string
	// SnapshotEvery checkpoints a tenant's full controller state every n
	// logged effects (0 = defaultSnapshotEvery; negative disables
	// automatic checkpoints). A final checkpoint is always written on
	// graceful shutdown.
	SnapshotEvery int64

	// Logger receives the daemon's structured log events (accepts,
	// handshakes, binds, reject waves, recovery and durability warnings,
	// idle timeouts, drain, connection-fatal errors) with tenant and
	// trace-ID attributes. Nil discards everything (the embedded-server
	// default).
	Logger *slog.Logger

	// TraceRing sizes each tenant's batch-trace ring (0 = 256,
	// at most obs.MaxRing; negative leaves the tenant with no tracer: no
	// traces and no stage, lock-hold or fsync histograms).
	TraceRing int

	// Pprof serves runtime/pprof's profiles and a runtime/trace capture
	// under /debug/pprof/ on the metrics listener. Off by default:
	// profiling endpoints are opt-in.
	Pprof bool
}

// defaultSnapshotEvery is the automatic checkpoint cadence (in logged
// effects) when WALDir is set and SnapshotEvery is zero.
const defaultSnapshotEvery = 1 << 18

// DefaultCommitWindow is the group-commit coalescing window: batches
// decided within one window of each other share one fsync.
const DefaultCommitWindow = 200 * time.Microsecond

// defaultHandshakeTimeout bounds the handshake: a connection that has not
// completed its Hello within this window, or within Config.IdleTimeout when
// that is positive and shorter, is dropped.
const defaultHandshakeTimeout = 10 * time.Second

// Server is a running daemon instance. Tenants is its one reader of
// tenant state.
type Server struct {
	cfg     Config
	tenants map[string]*tenant
	order   []string // tenant names in configuration order
	logger  *slog.Logger
	// started carries both the wall reading (dynctrld_start_time_seconds)
	// and the monotonic reading (dynctrld_uptime_seconds); zero until
	// Start, and uptime is reported as 0 until then.
	started time.Time

	ln    *wire.Listener
	httpd *httpResponder // the metrics listener, nil without MetricsAddr

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over fresh per-tenant admission stacks — or, when
// cfg.WALDir names a directory with history, over the recovered ones:
// each tenant's latest snapshot is restored in place, its WAL tail is
// replayed through the rebuilt controller (verifying every logged
// verdict), and its incarnation counter is bumped. Call Start to begin
// serving. It refuses a Config that declares no tenant or a TraceRing
// above obs.MaxRing.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenant declared")
	}
	if cfg.TraceRing > obs.MaxRing {
		return nil, fmt.Errorf("server: trace ring %d exceeds the maximum %d", cfg.TraceRing, obs.MaxRing)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}

	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenant{},
		conns:   map[*srvConn]struct{}{},
		logger:  cfg.Logger,
	}
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			s.closeTenants()
			return nil, fmt.Errorf("server: duplicate tenant name %q", tc.Name)
		}
		tn, err := newTenant(tc, cfg)
		if err != nil {
			s.closeTenants()
			return nil, err
		}
		s.tenants[tc.Name] = tn
		s.order = append(s.order, tc.Name)
	}
	return s, nil
}

// closeTenants tears down the stacks built so far (boot-failure path).
func (s *Server) closeTenants() {
	for _, name := range s.order {
		if tn := s.tenants[name]; tn.eng != nil {
			tn.eng.Close()
		}
	}
}

// Tenants reads every served namespace once, in configuration order.
func (s *Server) Tenants() []TenantView {
	views := make([]TenantView, len(s.order))
	for i, name := range s.order {
		views[i] = s.tenants[name].view()
	}
	return views
}

// unknownTenant is the refusal of a tenant name this daemon does not
// serve, on the wire (CodeTenant) and on /tracez alike.
func (s *Server) unknownTenant(name string) string {
	return fmt.Sprintf("unknown tenant %q (served: %v)", name, s.order)
}

// writeTraces renders the plain-text /tracez document: per tenant, the
// stage-latency digest plus the slowest-n and most-recent-n batch traces.
// A non-empty tenant filter restricts the report to that namespace.
func (s *Server) writeTraces(w io.Writer, tenant string, n int) {
	for _, name := range s.order {
		if tenant != "" && name != tenant {
			continue
		}
		obs.WriteTracez(w, name, s.tenants[name].tracer, n, n)
	}
}

// Start opens the listeners and begins serving. It returns once the
// listeners are bound (serving continues in background goroutines).
func (s *Server) Start() error {
	ln, err := wire.Listen(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("addr: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	if s.cfg.MetricsAddr != "" {
		hln, err := wire.Listen(s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("metrics: %w", err)
		}
		s.httpd = newHTTPResponder(hln, s.route, s.logger)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.logger.Info("serving",
		"addr", s.Addr(), "metrics", s.MetricsAddr(),
		"tenants", len(s.order), "paranoid", s.cfg.Paranoid,
		"wal", s.cfg.WALDir != "", "pprof", s.cfg.Pprof)
	return nil
}

// Addr returns the bound wire-protocol address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr()
}

// MetricsAddr returns the bound metrics address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.httpd == nil {
		return ""
	}
	return s.httpd.ln.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	acceptEach(s.ln, s.logger, "wire", &s.mu, &s.closed, s.adopt)
}

// acceptEach hands each connection ln accepts to take, until take reports
// false (and the connection is closed) or an accept fails once *closed,
// read under mu, is set. Any other failure (EMFILE, ENFILE, ENOBUFS, ENOMEM)
// is logged and retried after a pause of 5 ms, doubling to 1 s until an
// accept succeeds: a later accept may find the descriptor or memory.
func acceptEach(ln *wire.Listener, logger *slog.Logger, name string, mu *sync.Mutex, closed *bool, take func(conn) bool) {
	var pause time.Duration
	for {
		nc, err := ln.Accept()
		if err == nil {
			pause = 0
			if !take(nc) {
				nc.Close()
				return
			}
			continue
		}
		mu.Lock()
		done := *closed
		mu.Unlock()
		if done {
			return
		}
		pause = min(max(2*pause, 5*time.Millisecond), time.Second)
		logger.Warn("accept failed", "listener", name, "err", err, "retry_in", pause)
		time.Sleep(pause)
	}
}

// adopt registers nc as a live connection and starts its serve goroutine.
// It reports false once the drain has begun.
func (s *Server) adopt(nc conn) bool {
	c := newSrvConn(s, nc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.logger.Debug("connection accepted", "remote", c.remote)
	go c.serve()
	return true
}

// removeConn drops c from the live set and from its tenant's open count.
func (s *Server) removeConn(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	if c.tn != nil {
		c.tn.connsOpen.Add(-1)
	}
}

// Shutdown drains the server gracefully: stop accepting, close connection
// read sides (in-flight batches still get their responses), wait for the
// handlers, then have every tenant refuse what might still come
// (errShutdown), run its oracle's end-of-run checks and write its final
// checkpoint, all in one hold of its lock. The context bounds the drain; on
// expiry remaining connections are cut.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := slices.Collect(maps.Keys(s.conns))
	s.mu.Unlock()
	s.logger.Info("draining", "connections", len(conns))

	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.closeRead()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		for _, c := range conns {
			c.nc.Close()
		}
		<-done
	}

	for _, name := range s.order {
		tn := s.tenants[name]
		tn.mu.Lock()
		tn.refuse = errShutdown
		if tn.orc != nil {
			tn.orc.Finish()
		}
		if tn.eng != nil {
			// Final checkpoint: a graceful restart replays nothing.
			if err := tn.eng.Checkpoint(tn.eng.Capture(tn.cfg.M, tn.cfg.W, tn.tr, tn.ctl)); err != nil {
				s.logger.Warn("final checkpoint failed", "tenant", tn.name, "err", err)
			}
		}
		tn.mu.Unlock()
		if tn.eng != nil {
			if err := tn.eng.Close(); err != nil {
				s.logger.Warn("wal close failed", "tenant", tn.name, "err", err)
			}
		}
	}

	if s.httpd != nil {
		s.httpd.close()
	}
	s.logger.Info("shutdown complete", "drain_err", drainErr != nil)
	return drainErr
}
