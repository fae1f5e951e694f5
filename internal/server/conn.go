package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/wire"
)

// readBatch bounds how many requests one connection coalesces from its
// socket buffer into a single run.
const readBatch = 4096

// conn is what a connection is served through: a *wire.Conn from the
// listeners, and in tests a *net.TCPConn or a net.Pipe end.
type conn interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// srvConn is one accepted wire-protocol connection, bound to a single
// tenant namespace by the handshake.
type srvConn struct {
	s      *Server
	nc     conn
	sock   io.ReadWriter // nc's bytes, raw on Linux, read through br
	remote string
	br     *bufio.Reader
	tn     *tenant // nil until the handshake binds the namespace (serve goroutine only)

	readClosed atomic.Bool

	// Serve-goroutine state, reused across read batches.
	lastTrace uint64 // ID of the last batch trace this connection recorded
	waveSent  bool   // the RejectWave frame has gone out ahead of some Results
	rbuf      []byte
	ids       []uint64 // one per Submit frame of the current read batch
	counts    []int    // requests carried by each of those frames
	// reqs is the read batch, one run for tenant.submit, which the frames
	// decode straight onto; results its answers, which the Results frames
	// encode straight from.
	reqs    []controller.Request
	results []controller.BatchResult
	wbuf    []byte
}

// newSrvConn reads and writes a *wire.Conn, the raw path already, through
// itself, and any other syscall.Conn (a test's) through wire.RawSocket.
func newSrvConn(s *Server, nc conn) *srvConn {
	var sock io.ReadWriter = nc
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := wire.RawSocket(sc); err == nil {
			sock = raw
		}
	}
	remote := fmt.Sprintf("%T", nc) // a test's conn
	if a, ok := nc.(interface{ RemoteAddr() string }); ok {
		remote = a.RemoteAddr()
	}
	return &srvConn{s: s, nc: nc, sock: sock, remote: remote, br: bufio.NewReaderSize(sock, 64<<10)}
}

// closeRead shuts the read side so the serve loop drains out; responses for
// in-flight batches still go to the client.
func (c *srvConn) closeRead() {
	c.readClosed.Store(true)
	if tc, ok := c.nc.(interface{ CloseRead() error }); ok {
		tc.CloseRead() //nolint:errcheck
		return
	}
	// Non-TCP (e.g. in-memory test pipes): fall back to a hard close.
	c.nc.Close()
}

// send writes buf (one or more complete encoded frames) to the peer, straight
// from the caller's buffer. It is the only place the write side is touched,
// and only the connection's own serve goroutine calls it.
func (c *srvConn) send(buf []byte) error {
	_, err := c.sock.Write(buf)
	return err
}

// fail writes a connection-fatal error frame and gives up on the peer.
func (c *srvConn) fail(code uint8, detail string) {
	tenant := ""
	if c.tn != nil {
		tenant = c.tn.name
	}
	c.s.logger.Warn("connection fatal",
		"remote", c.remote, "tenant", tenant,
		"code", code, "detail", detail, "trace_id", c.lastTrace)
	// The connection is being torn down either way; a peer that cannot be
	// told why learns it from the close.
	_ = c.send(wire.AppendError(nil, wire.ErrorFrame{Code: code, Detail: detail}))
}

// refuse ends a handshake that cannot bind: one "handshake failed" event
// and one typed error frame naming the reason.
func (c *srvConn) refuse(code uint8, detail string) {
	c.s.logger.Warn("handshake failed", "remote", c.remote, "err", detail)
	c.fail(code, detail)
}

func (c *srvConn) serve() {
	defer c.s.wg.Done()
	defer c.s.removeConn(c)
	defer c.nc.Close()
	if c.handshake() {
		c.loop()
	}
}

// handshake reads exactly one Hello and answers it with Welcome. The Hello
// names the tenant namespace the connection binds to; everything after the
// handshake is implicitly scoped to it. It reports false when the
// connection is finished (refused, aborted or unwritable).
func (c *srvConn) handshake() bool {
	// The Hello is the first frame, so the idle deadline holds it too,
	// capped at defaultHandshakeTimeout. A deadline that cannot be armed is
	// connection-fatal: serving an undeadlined handshake would hand a
	// slow-loris peer a goroutine forever.
	hsTimeout := defaultHandshakeTimeout
	if idle := c.s.cfg.IdleTimeout; idle > 0 && idle < hsTimeout {
		hsTimeout = idle
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(hsTimeout)); err != nil {
		return false
	}
	ft, p, err := wire.ReadFrame(c.br, &c.rbuf)
	if err != nil {
		// A clean immediate close (port probe, peer gave up) is routine;
		// anything else — garbage bytes, a torn frame, the handshake
		// deadline — is a fault worth flagging.
		if errors.Is(err, io.EOF) || c.readClosed.Load() {
			c.s.logger.Debug("handshake aborted", "remote", c.remote, "err", err)
		} else {
			c.s.logger.Warn("handshake failed", "remote", c.remote, "err", err)
		}
		return false
	}
	if ft != wire.FrameHello {
		c.refuse(wire.CodeProtocol, fmt.Sprintf("expected hello, got %v", ft))
		return false
	}
	hello, err := wire.DecodeHello(p)
	if err != nil {
		code := wire.CodeProtocol
		if errors.Is(err, wire.ErrBadTenant) {
			code = wire.CodeTenant
		}
		c.refuse(code, err.Error())
		return false
	}
	if hello.Version != wire.Version {
		c.refuse(wire.CodeVersion, fmt.Sprintf("server speaks version %d, client sent %d", wire.Version, hello.Version))
		return false
	}
	tn := c.s.tenants[hello.Tenant]
	if tn == nil {
		c.refuse(wire.CodeTenant, c.s.unknownTenant(hello.Tenant))
		return false
	}
	c.tn = tn
	tn.connsOpen.Add(1)
	tn.connsTotal.Add(1)
	c.s.logger.Debug("connection bound", "remote", c.remote, "tenant", tn.name, "incarnation", tn.incarnation)
	if c.s.cfg.IdleTimeout <= 0 {
		// No idle policy: clear the handshake deadline. Failing to clear
		// it would strand the connection behind a stale deadline, so it
		// is connection-fatal too.
		if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
			return false
		}
	}
	return c.send(wire.AppendWelcome(nil, wire.Welcome{
		Version:     wire.Version,
		Tenant:      tn.name,
		M:           tn.cfg.M,
		W:           tn.cfg.W,
		TopoSig:     tn.topoSig,
		Incarnation: tn.incarnation,
	})) == nil
}

// loop is the request loop with read-batching: each wakeup takes the frame
// that unblocked the read plus every complete Submit frame already sitting
// in the socket buffer (up to readBatch requests), answers them all through
// one tenant.submit run, then writes one Results frame per Submit. It
// returns when the peer can no longer be read from or written to.
func (c *srvConn) loop() {
	tn := c.tn
	idle := c.s.cfg.IdleTimeout
	tracer := tn.tracer
	for {
		c.ids, c.counts, c.reqs, c.results = c.ids[:0], c.counts[:0], c.reqs[:0], c.results[:0]

		// Rolling idle deadline, re-armed per frame: any complete frame
		// resets the clock, but a peer that dribbles bytes (or nothing)
		// for IdleTimeout is cut loose.
		if idle > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		ft, p, err := wire.ReadFrame(c.br, &c.rbuf)
		if err != nil {
			if idle > 0 && !c.readClosed.Load() {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					tn.idleTimeouts.Add(1)
					c.s.logger.Info("idle timeout", "remote", c.remote, "tenant", tn.name)
				}
			}
			return // peer closed, idle timeout, shutdown, or read error: drain out
		}
		// The trace clock starts once the first frame has arrived: time a
		// connection spends idle waiting for traffic is not server latency.
		var start time.Time
		if tracer != nil {
			start = time.Now()
		}
		if !c.ingest(ft, p) {
			return
		}
		for len(c.reqs) < readBatch && c.completeFrameBuffered() {
			ft, p, err := wire.ReadFrame(c.br, &c.rbuf)
			if err != nil || !c.ingest(ft, p) {
				return
			}
		}
		if len(c.reqs) == 0 {
			// Empty Submit frames still get their (empty) Results reply:
			// every submitted id is answered, always.
			if _, _, _, err := c.accountAndReply(receipt{}); err != nil {
				return
			}
			continue
		}

		// One clock read ends the decode span and starts the submit span.
		var submitStart time.Time
		if tracer != nil {
			submitStart = time.Now()
		}
		var rc receipt
		c.results, rc = tn.submit(c.reqs, c.results)
		var submitWall time.Duration
		if tracer != nil {
			submitWall = time.Since(submitStart)
		}

		// Group commit: results may not reach the wire before this batch's
		// WAL records are fsynced. Other connections' runs execute while
		// this one rides out the fsync. A missing ticket is only legal when
		// the run decided nothing (shutdown/dead-WAL error results) — with
		// any successful result it means the durability chain broke, and
		// the connection dies rather than reply early.
		var walWait time.Duration
		if eng := tn.eng; eng != nil {
			if !rc.hasTicket {
				for _, br := range c.results {
					if br.Err == nil {
						c.fail(wire.CodeProtocol, "wal: decided batch has no durability ticket")
						return
					}
				}
			} else {
				waitStart := time.Now() // two clock reads are noise next to an fsync
				if werr := eng.WaitDurable(rc.ticket); werr != nil {
					c.fail(wire.CodeProtocol, fmt.Sprintf("wal: %v", werr))
					return
				}
				walWait = time.Since(waitStart)
			}
		}

		grants, rejects, errCount, err := c.accountAndReply(rc)
		if err != nil {
			return
		}

		if tracer != nil {
			// The trace is built here, on the stack, from what the batch
			// already brought back, and copied in by one Record. The wait
			// for tenant.mu is what is left of the run's wall time once its
			// own execute and WAL-append work (its hold of mu) is taken out.
			total, decode, hold := time.Since(start), submitStart.Sub(start), rc.exec+rc.walAppend
			bt := obs.BatchTrace{
				Start: start, Total: total, Hold: hold,
				Frames: len(c.ids), Requests: len(c.reqs),
				Grants: grants, Rejects: rejects, Errors: errCount,
				Moves: rc.moves, Conn: c.remote,
				Stages: [obs.StageTotal]time.Duration{
					obs.StageDecode:  decode,
					obs.StageQueue:   max(submitWall-hold, 0),
					obs.StageExecute: rc.exec,
					obs.StageWAL:     rc.walAppend + walWait,
					obs.StageWrite:   max(total-decode-submitWall-walWait, 0),
				},
			}
			c.lastTrace = tracer.Record(&bt)
		}
	}
}

// ingest folds one frame into the current read batch. It reports false
// when the connection must be torn down (protocol error).
func (c *srvConn) ingest(ft wire.FrameType, p []byte) bool {
	if ft != wire.FrameSubmit {
		c.fail(wire.CodeProtocol, fmt.Sprintf("unexpected %v frame", ft))
		return false
	}
	n := len(c.reqs)
	reqs, id, err := wire.AppendDecodeSubmit(c.reqs, p)
	if err != nil {
		c.fail(wire.CodeProtocol, err.Error())
		return false
	}
	c.reqs = reqs
	c.ids = append(c.ids, id)
	c.counts = append(c.counts, len(reqs)-n)
	return true
}

// completeFrameBuffered reports whether at least one whole frame sits in
// the read buffer, so reading it cannot block.
func (c *srvConn) completeFrameBuffered() bool {
	if c.br.Buffered() < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4) // cannot fail: four bytes are buffered
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 1 || n > wire.MaxFrame {
		// Let ReadFrame consume it and report the protocol error.
		return true
	}
	return c.br.Buffered() >= 4+n
}

// resultCode is the wire code a request's outcome is answered with (the
// reply loop calls it for errors only: a verdict's code is CodeOK).
func resultCode(err error) uint8 {
	switch {
	case err == nil:
		return wire.CodeOK
	case errors.Is(err, errShutdown):
		return wire.CodeShutdown
	case errors.Is(err, controller.ErrTerminated):
		return wire.CodeTerminated
	case errors.Is(err, errWALUnavailable):
		return wire.CodeInternal
	default:
		return wire.CodeBadRequest
	}
}

// accountAndReply updates the bound tenant's wire-level tallies, writes one
// Results frame per submitted frame of the current read batch in order, and
// returns the batch's verdict tallies. The first run whose receipt shows the
// reject wave puts the RejectWave frame ahead of its Results in the same
// write, so every verdict decided after the wave reaches this connection
// behind it. The tallies are published before the write, so /metricsz never
// reports fewer answers than a client has seen; a write error means the
// peer can no longer be answered and ends the serve loop.
func (c *srvConn) accountAndReply(rc receipt) (grants, rejects, errs int64, err error) {
	buf := c.wbuf[:0]
	if rc.wave && !c.waveSent {
		buf = wire.AppendRejectWave(buf, wire.RejectWave{Granted: rc.granted})
		c.waveSent = true
	}
	off := 0
	for i, id := range c.ids {
		n := c.counts[i]
		var e wire.ResultEntries
		buf, e = wire.GrowResults(buf, id, n)
		for j := range n {
			br := &c.results[off+j]
			var r wire.Result
			if br.Err != nil {
				r.Code = resultCode(br.Err)
				errs++
			} else {
				r = wire.Result{
					Outcome: uint8(br.Grant.Outcome),
					Code:    wire.CodeOK,
					Serial:  br.Grant.Serial,
					NewNode: br.Grant.NewNode,
				}
				switch br.Grant.Outcome {
				case controller.Granted:
					grants++
				case controller.Rejected:
					rejects++
				}
			}
			e.Set(j, r)
		}
		off += n
	}
	c.wbuf = buf

	tn := c.tn
	tn.ops.Add(int64(off))
	tn.grants.Add(grants)
	tn.rejects.Add(rejects)
	tn.errs.Add(errs)

	if err = c.send(buf); err != nil {
		c.s.logger.Debug("results write failed", "remote", c.remote, "tenant", tn.name, "err", err)
	}
	return grants, rejects, errs, err
}
