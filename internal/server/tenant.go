package server

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/oracle"
	"dynctrl/internal/persist"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// TenantConfig describes one tenant namespace: its name (the Hello
// handshake key, also its WAL subdirectory and /metricsz label) and the
// private admission stack it owns.
type TenantConfig struct {
	// Name is the namespace name; it must satisfy wire.ValidTenant.
	Name string

	// Topology and Seed determine the tenant's initial tree, exactly as in
	// the scenario engine: the same (spec, seed) pair always builds the
	// same tree, which is how a remote load generator reconstructs it.
	Topology workload.TopologySpec
	Seed     int64

	// M and W are the tenant's admission contract.
	M, W int64
}

// tenantConfigs normalizes cfg into the tenant list: the explicit Tenants
// slice, or a single wire.DefaultTenant namespace built from the
// single-tenant fields.
func tenantConfigs(cfg Config) []TenantConfig {
	if len(cfg.Tenants) > 0 {
		return cfg.Tenants
	}
	return []TenantConfig{{
		Name:     wire.DefaultTenant,
		Topology: cfg.Topology,
		Seed:     cfg.Seed,
		M:        cfg.M,
		W:        cfg.W,
	}}
}

// tenant is one namespace's private admission stack plus its wire-level
// accounting. Nothing in here is shared between tenants: the tree, the
// controller, the pipeline, the WAL engine, the oracle and every counter
// are per-namespace, which is what the cross-tenant isolation oracle
// (oracle.CheckTenantIsolation) relies on.
type tenant struct {
	name    string
	cfg     TenantConfig
	pl      *pipeline.Pipeline
	logger  *slog.Logger
	topoSig uint64

	// mu owns the engine: the tree, the controller, its counters, the
	// oracle and the dead flag have no lock of their own (packages tree and
	// stats, Ownership), so whoever holds mu owns them and nothing touches
	// them without. The pipeline leader is the only submitter; what mu
	// orders is a run's execution with its WAL append (log order is
	// execution order), the checkpoint's capture of tree, controller and
	// counters (never mid-run), the reject wave's read of the final grant
	// total, and the scrape's one read of the engine (engineView).
	mu sync.Mutex
	tr *tree.Tree
	// ctl is the engine: the centralized unknown-U controller of Section 3,
	// whose cost is the move counter in ctrs.
	ctl  *controller.Dynamic
	ctrs *stats.Counters
	orc  *oracle.Oracle // non-nil in paranoid mode; ctl goes through it
	// dead is set when the WAL can no longer accept records: from then on
	// batches are refused *before* touching the controller, because a
	// grant that cannot be logged would burn the permit budget against a
	// state no recovery can ever reconstruct.
	dead bool

	// Durability engine state (nil/zero without a WAL). submit appends
	// every decided batch under mu and triggers background checkpoints; it
	// does NOT wait for the fsync (connections do that before replying), so
	// the pipeline keeps combining batches while earlier batches ride out
	// their group commit.
	eng              *persist.Engine
	incarnation      uint64
	recoveredEffects int
	recoveredTrunc   int64

	// conns is the set of connections bound to this namespace. The
	// handshake inserts, the serve loop's exit removes and the reject wave
	// iterates, all under cmu: the wave never reads a connection that is
	// mid-handshake or bound elsewhere.
	cmu   sync.Mutex
	conns map[*srvConn]struct{}

	// Wire-level accounting: what the server actually answered over the
	// network for this tenant. The controller's own counters (grants,
	// moves, ...) are reported separately on /metricsz; these are the
	// numbers a load generator must reconcile against.
	ops, grants, rejects, errs atomic.Int64
	readBatches, readReqs      atomic.Int64
	maxRead                    atomic.Int64
	connsOpen, connsTotal      atomic.Int64
	idleTimeouts               atomic.Int64
	rejectWave                 atomic.Bool
	waveGranted                atomic.Int64

	// Observability (all nil when Config.TraceRing < 0): the batch-trace
	// ring + per-stage histograms, the pipeline combining-cycle recorder
	// and the WAL fsync-wave recorder.
	tracer  *obs.Tracer
	combine *obs.Recorder
	fsync   *obs.Recorder
}

// receipt is what submit learned about one run, returned to the
// connection that owns the run: the group-commit ticket covering exactly
// its records (when a WAL is attached and the append succeeded), so each
// connection waits for its own fsync window instead of the engine's append
// high-water mark (which other connections keep advancing — a convoy); the
// WAL append time under mu; and, with tracing on, the run's controller
// execution time and move count. A ticketless receipt with
// successful results is a broken durability invariant, never permission to
// reply early — it is legitimate only for runs that decided nothing.
type receipt struct {
	ticket    uint64
	hasTicket bool
	exec      time.Duration
	walAppend time.Duration
	moves     int64
}

// errWALUnavailable answers requests once the WAL has permanently failed.
var errWALUnavailable = errors.New("server: wal unavailable")

// submit drives one run through the controller (and the oracle and WAL,
// when configured), appending one result per request to out.
func (t *tenant) submit(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, receipt) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rc receipt
	if t.dead {
		for range reqs {
			out = append(out, controller.BatchResult{Err: errWALUnavailable})
		}
		return out, rc
	}
	var execStart time.Time
	var movesBefore int64
	traced := t.tracer != nil
	if traced {
		movesBefore = t.ctrs.Get(stats.CounterMoves)
		execStart = time.Now()
	}
	base := len(out)
	if t.orc == nil {
		out = t.ctl.SubmitBatch(reqs, out)
	} else {
		for _, req := range reqs {
			gr, err := t.orc.Submit(req)
			out = append(out, controller.BatchResult{Grant: gr, Err: err})
		}
	}
	if traced {
		rc.exec = time.Since(execStart)
		rc.moves = t.ctrs.Get(stats.CounterMoves) - movesBefore
	}
	if t.eng != nil {
		walStart := time.Now()
		ticket, err := t.eng.AppendEffects(reqs, out[base:])
		rc.walAppend = time.Since(walStart)
		if err != nil {
			t.dead = true
			t.logger.Warn("wal append failed, refusing further admissions", "tenant", t.name, "err", err)
		} else {
			rc.ticket, rc.hasTicket = ticket, true
		}
		if t.eng.ShouldCheckpoint() {
			t.eng.CheckpointAsync(t.captureState())
		}
	}
	return out, rc
}

// newTenant builds (or, when its WAL subdirectory has history, recovers)
// one namespace's admission stack.
func newTenant(tc TenantConfig, cfg Config) (*tenant, error) {
	if !wire.ValidTenant(tc.Name) {
		return nil, fmt.Errorf("server: invalid tenant name %q", tc.Name)
	}
	if tc.M < 0 || tc.W < 0 || tc.W > tc.M {
		return nil, fmt.Errorf("server: tenant %q: invalid contract (M=%d, W=%d)", tc.Name, tc.M, tc.W)
	}
	if tc.Topology.Kind == "" {
		tc.Topology.Kind = "balanced"
	}
	if tc.Topology.Nodes < 1 {
		tc.Topology.Nodes = 1
	}
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, tc.Topology, tc.Seed); err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
	}
	// The handshake's topology signature always names the *initial* tree
	// (the one a remote load generator can reconstruct from the spec and
	// seed); recovery below may evolve the live tree past it.
	topoSig := workload.TopologySignature(tr)
	ctrs := stats.NewCounters()

	tn := &tenant{
		name:    tc.Name,
		cfg:     tc,
		logger:  cfg.Logger,
		tr:      tr,
		ctl:     controller.NewDynamic(tr, tc.M, tc.W, controller.WithDynamicCounters(ctrs)),
		ctrs:    ctrs,
		topoSig: topoSig,
		conns:   map[*srvConn]struct{}{},
	}
	traced := cfg.TraceRing >= 0
	if traced {
		tn.tracer = obs.NewTracer(cfg.TraceRing, obs.DefaultSlow)
		tn.combine = obs.NewRecorder()
	}

	var walDir string
	if cfg.WALDir != "" {
		walDir = filepath.Join(cfg.WALDir, tc.Name)
		popts := persist.Options{
			SnapshotEvery: max(cfg.SnapshotEvery, 0),
			CommitWindow:  max(cfg.CommitWindow, 0),
			Logger:        cfg.Logger.With("tenant", tc.Name),
		}
		if traced {
			tn.fsync = obs.NewRecorder()
			popts.SyncObserver = func(_ int, d time.Duration) { tn.fsync.Record(d) }
		}
		eng, rec, err := persist.Open(walDir, popts)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: open wal: %w", tc.Name, err)
		}
		if rec.Snapshot != nil {
			if rec.Snapshot.M != tc.M || rec.Snapshot.W != tc.W {
				eng.Close()
				return nil, fmt.Errorf("server: tenant %q: wal snapshot was taken under (M=%d, W=%d), daemon started with (M=%d, W=%d)",
					tc.Name, rec.Snapshot.M, rec.Snapshot.W, tc.M, tc.W)
			}
			err := persist.RestoreInto(rec.Snapshot, tr, ctrs)
			if err == nil {
				tn.ctl, err = controller.RestoreDynamic(tr, rec.Snapshot.Ctl, ctrs)
			}
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
			}
		}
		applied, err := persist.Replay(rec.Tail, tn.ctl)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
		}
		tn.eng = eng
		tn.incarnation = eng.Incarnation()
		tn.recoveredEffects = applied
		tn.recoveredTrunc = rec.TruncatedBytes
		if rec.Snapshot != nil || applied > 0 {
			var snapIndex uint64
			if rec.Snapshot != nil {
				snapIndex = rec.Snapshot.Index
			}
			cfg.Logger.Info("tenant recovered",
				"tenant", tc.Name, "incarnation", tn.incarnation,
				"snapshot_index", snapIndex, "effects_replayed", applied,
				"truncated_bytes", rec.TruncatedBytes)
		}
	}

	if cfg.Paranoid {
		// Seed the oracle with the recovered totals — and every serial the
		// retained history ever granted — so the safety counter and serial
		// uniqueness span incarnations.
		var priorSerials []int64
		if tn.eng != nil {
			history, err := persist.ReadHistory(walDir)
			if err != nil {
				cfg.Logger.Warn("reading wal history for the oracle baseline failed", "tenant", tc.Name, "err", err)
			}
			for _, sum := range persist.Summaries(history) {
				priorSerials = append(priorSerials, sum.Serials...)
			}
		}
		tn.orc = oracle.Wrap(tn.ctl, tr, tc.M, tc.W,
			oracle.WithMessages(func() int64 { return ctrs.Get(stats.CounterMoves) }),
			oracle.WithBaseline(tn.ctl.Granted(), ctrs.Get(stats.CounterRejects), priorSerials))
	}
	var opts []pipeline.Option
	if cfg.MaxBatch > 0 {
		opts = append(opts, pipeline.WithMaxBatch(cfg.MaxBatch))
	}
	if traced {
		opts = append(opts, pipeline.WithCycleHook(func(_, _ int, d time.Duration) {
			tn.combine.Record(d)
		}))
	}
	// Every run enters through Do carrying its connection's connRun, whose
	// Run calls submit: the pipeline has no submitter of its own to go
	// around mu with.
	tn.pl = pipeline.New(nil, opts...)
	return tn, nil
}

// engineView is a tenant's engine at one instant: everything /metricsz
// reports of what mu owns.
type engineView struct {
	nodes, height                       int
	moves, grants, rejects, topoChanges int64 // the controller's own counters
	violations                          int   // the oracle's; 0 when not paranoid
}

// engineView reads the engine for the scrape, which waits here for the run
// in flight, if there is one, and reads a state no run is changing: the
// fields are of one instant, so nodes is the initial tree plus or minus
// exactly the topoChanges counted. Height scans one int32 per id.
func (t *tenant) engineView() engineView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := engineView{
		nodes:       t.tr.Size(),
		height:      t.tr.Height(),
		moves:       t.ctrs.Get(stats.CounterMoves),
		grants:      t.ctrs.Get(stats.CounterGrants),
		rejects:     t.ctrs.Get(stats.CounterRejects),
		topoChanges: t.ctrs.Get(stats.CounterTopoChanges),
	}
	if t.orc != nil {
		v.violations = len(t.orc.Violations())
	}
	return v
}

// captureState deep-copies a tenant's admission stack into a snapshot
// state. Called with mu held (no submission in flight).
func (t *tenant) captureState() *persist.State {
	return &persist.State{
		Index:       t.eng.AppendedIndex(),
		Incarnation: t.incarnation,
		M:           t.cfg.M,
		W:           t.cfg.W,
		Tree:        t.tr.Snapshot(),
		Ctl:         t.ctl.State(),
		Counters:    t.ctrs.Snapshot(),
	}
}

// bind adds c to the tenant's connection set (the handshake's last step
// before Welcome, under c's write lock so no wave frame gets between the
// two); unbind removes it when c's serve loop exits.
func (t *tenant) bind(c *srvConn) {
	t.cmu.Lock()
	t.conns[c] = struct{}{}
	t.cmu.Unlock()
	t.connsOpen.Add(1)
	t.connsTotal.Add(1)
}

func (t *tenant) unbind(c *srvConn) {
	t.cmu.Lock()
	delete(t.conns, c)
	t.cmu.Unlock()
	t.connsOpen.Add(-1)
}

// broadcastRejectWave pushes a RejectWave frame to every connection bound
// to t and logs the wave completion to t's WAL. Called at most once per
// tenant, by whichever connection observed the first reject. The grant
// total it announces is the controller's, which is final once it rejects —
// the wire tally lags it by whatever other connections have decided but not
// yet answered. A peer the wave cannot be written to can no longer be
// answered at all, so its connection is cut and its serve loop drains out.
func (t *tenant) broadcastRejectWave() {
	t.mu.Lock()
	granted := t.ctl.Granted()
	t.mu.Unlock()
	t.waveGranted.Store(granted)
	if t.eng != nil {
		if _, err := t.eng.AppendWave(granted); err != nil {
			t.logger.Warn("wal wave append failed", "tenant", t.name, "err", err)
		}
	}
	t.cmu.Lock()
	conns := slices.Collect(maps.Keys(t.conns))
	t.cmu.Unlock()
	t.logger.Info("reject wave", "tenant", t.name, "granted", granted, "connections", len(conns))
	frame := wire.AppendRejectWave(nil, wire.RejectWave{Granted: granted})
	for _, c := range conns {
		if err := c.send(frame); err != nil {
			t.logger.Debug("reject wave write failed", "remote", c.remote, "tenant", t.name, "err", err)
			c.nc.Close()
		}
	}
}
