package server

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/oracle"
	"dynctrl/internal/persist"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
)

// TenantConfig describes one tenant namespace: its name (the Hello
// handshake key, also its WAL subdirectory and /metricsz label) and the
// private admission stack it owns.
type TenantConfig struct {
	// Name is the namespace name; it must satisfy wire.ValidTenant.
	Name string

	// Topology and Seed determine the tenant's initial tree (tree.Build):
	// the same (shape, seed) pair always builds the same tree, which is how
	// a remote load generator reconstructs it. The zero Shape is the bare
	// root.
	Topology tree.Shape
	Seed     int64

	// M and W are the tenant's admission contract.
	M, W int64
}

// tenant is one namespace's private admission stack plus its wire-level
// accounting. Nothing in here is shared between tenants: the tree, the
// controller, the WAL engine, the oracle and every counter are
// per-namespace, which is what the cross-tenant isolation oracle
// (oracle.CheckTenantIsolation) relies on.
type tenant struct {
	name    string
	cfg     TenantConfig
	logger  *slog.Logger
	topoSig uint64

	// mu is the tenant's one exclusion, and it owns the engine: the tree,
	// the controller, its counters, the oracle, the refusal and the run
	// tallies have no lock of their own (packages tree and stats,
	// Ownership), so whoever holds mu owns them and nothing touches them
	// without. The paper's controller serves one request at a time (Section
	// 3); mu is where the daemon says so. Every connection's serve loop
	// calls submit, which holds mu for the run's execution with its WAL
	// append (log order is execution order) and the read of the reject wave
	// into the run's receipt; the checkpoint captures tree,
	// controller and counters under it (never mid-run); a reader takes the
	// engine once under it (view); the drain sets the refusal under it.
	mu sync.Mutex
	tr *tree.Tree
	// ctl is the engine: the centralized unknown-U controller of Section 3,
	// whose cost is the move counter in ctl.Counters(). Recovery replaces
	// ctl, counters and all, so the counters are read through it each time.
	ctl *controller.Dynamic
	orc *oracle.Oracle // non-nil in paranoid mode
	// sub is what submit drives: ctl, or in paranoid mode orc around it.
	sub controller.BatchSubmitter
	// refuse, once set, answers every request of every run *before* it
	// touches the controller: errWALUnavailable when the WAL can no longer
	// accept records (a grant that cannot be logged would burn the permit
	// budget against a state no recovery can ever reconstruct), errShutdown
	// from the end of the drain on (Shutdown sets it in the hold of mu that
	// writes the final checkpoint, so that checkpoint is the last word).
	refuse error
	// waved is set, with the controller's then final grant total, by the run
	// that decides this incarnation's first reject; every later run's
	// receipt carries both.
	waved       bool
	waveGranted int64
	// runs, runReqs and maxRun count what submit executed: runs, the
	// requests they carried and the largest one. A connection's read batch is
	// one run, so these are the read-batch tallies as well.
	runs, runReqs int64
	maxRun        int

	// Durability engine state (nil/zero without a WAL). submit appends
	// every decided batch under mu and triggers background checkpoints; it
	// does NOT wait for the fsync (connections do that before replying), so
	// other connections' runs execute while earlier ones ride out their
	// group commit.
	eng              *persist.Engine
	incarnation      uint64
	recoveredEffects int
	recoveredTrunc   int64

	// Wire-level accounting: what the server actually answered over the
	// network for this tenant. The controller's own counters (grants,
	// moves, ...) are reported separately on /metricsz; these are the
	// numbers a load generator must reconcile against.
	ops, grants, rejects, errs atomic.Int64
	connsOpen, connsTotal      atomic.Int64
	idleTimeouts               atomic.Int64

	// tracer is everything the tenant observes (nil when Config.TraceRing <
	// 0): the batch traces, the per-stage histograms, a run's time under mu
	// (execute plus WAL append) and the WAL's fsync waves.
	tracer *obs.Tracer
}

// receipt is what submit learned about one run, returned to the
// connection that owns the run: the group-commit ticket covering exactly
// its records (when a WAL is attached and the append succeeded), so each
// connection waits for its own fsync window instead of the engine's append
// high-water mark (which other connections keep advancing — a convoy); the
// WAL append time under mu; and, with tracing on, the run's controller
// execution time and move count. A ticketless receipt with
// successful results is a broken durability invariant, never permission to
// reply early — it is legitimate only for runs that decided nothing. The
// receipt also carries the reject wave as the run found it: wave is set
// once a run (this one or an earlier) decided the tenant's first reject,
// and granted is the controller's grant total at that reject, final from
// there on.
type receipt struct {
	ticket    uint64
	hasTicket bool
	exec      time.Duration
	walAppend time.Duration
	moves     int64
	wave      bool
	granted   int64
}

// What a refusing tenant answers with: errWALUnavailable once the WAL has
// permanently failed (wire.CodeInternal), errShutdown once the drain is
// over (wire.CodeShutdown).
var (
	errWALUnavailable = errors.New("server: wal unavailable")
	errShutdown       = errors.New("server: shut down")
)

// submit drives one run through the controller (and the oracle and WAL,
// when configured), appending one result per request to out. It is the
// serving path's only way to the engine, from any connection's goroutine.
func (t *tenant) submit(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, receipt) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rc := receipt{wave: t.waved, granted: t.waveGranted}
	if t.refuse != nil {
		for range reqs {
			out = append(out, controller.BatchResult{Err: t.refuse})
		}
		return out, rc
	}
	t.runs++
	t.runReqs += int64(len(reqs))
	t.maxRun = max(t.maxRun, len(reqs))
	var execStart time.Time
	var movesBefore int64
	ctrs := t.ctl.Counters()
	traced := t.tracer != nil
	if traced {
		movesBefore = ctrs.Get(stats.CounterMoves)
		execStart = time.Now()
	}
	base := len(out)
	rejectsBefore := ctrs.Get(stats.CounterRejects)
	out = t.sub.SubmitBatch(reqs, out)
	if traced {
		rc.exec = time.Since(execStart)
		rc.moves = ctrs.Get(stats.CounterMoves) - movesBefore
	}
	// The run that decides the first reject decides the wave, whose grant
	// total is final from that reject on. The wave's WAL marker goes right
	// behind the run's effects (log order is execution order), and the run's
	// ticket covers it.
	decided := !t.waved && ctrs.Get(stats.CounterRejects) > rejectsBefore
	if decided {
		t.waved, t.waveGranted = true, t.ctl.Granted()
		rc.wave, rc.granted = true, t.waveGranted
		t.logger.Info("reject wave", "tenant", t.name, "granted", t.waveGranted)
	}
	if t.eng != nil {
		walStart := time.Now()
		ticket, err := t.eng.AppendEffects(reqs, out[base:])
		if err == nil && decided {
			if wt, werr := t.eng.AppendWave(t.waveGranted); werr != nil {
				t.logger.Warn("wal wave append failed", "tenant", t.name, "err", werr)
			} else {
				ticket = wt
			}
		}
		rc.walAppend = time.Since(walStart)
		if err != nil {
			t.refuse = errWALUnavailable
			t.logger.Warn("wal append failed, refusing further admissions", "tenant", t.name, "err", err)
		} else {
			rc.ticket, rc.hasTicket = ticket, true
		}
		if t.eng.ShouldCheckpoint() {
			t.eng.CheckpointAsync(t.eng.Capture(t.cfg.M, t.cfg.W, t.tr, t.ctl))
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
	tr, _ := tree.New()
	if err := tree.Build(tr, tc.Topology, tc.Seed); err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
	}
	// The handshake's topology signature always names the *initial* tree
	// (the one a remote load generator can reconstruct from the shape and
	// seed); recovery below may evolve the live tree past it.
	topoSig := tr.Signature()

	tn := &tenant{
		name:    tc.Name,
		cfg:     tc,
		logger:  cfg.Logger,
		tr:      tr,
		ctl:     controller.NewDynamic(tr, tc.M, tc.W),
		topoSig: topoSig,
	}
	if cfg.TraceRing >= 0 {
		tn.tracer = obs.NewTracer(cfg.TraceRing, obs.DefaultSlow)
	}

	var walDir string
	if cfg.WALDir != "" {
		walDir = filepath.Join(cfg.WALDir, tc.Name)
		popts := persist.Options{
			SnapshotEvery: max(cfg.SnapshotEvery, 0),
			CommitWindow:  DefaultCommitWindow,
			Logger:        cfg.Logger.With("tenant", tc.Name),
		}
		if tn.tracer != nil {
			popts.SyncObserver = func(_ int, d time.Duration) { tn.tracer.RecordFsync(d) }
		}
		eng, rec, err := persist.Open(walDir, popts)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: open wal: %w", tc.Name, err)
		}
		tn.ctl, tn.recoveredEffects, err = persist.Recover(rec, controller.Centralized, tc.M, tc.W, tr, tn.ctl)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
		}
		tn.eng = eng
		tn.incarnation = eng.Incarnation()
		tn.recoveredTrunc = rec.TruncatedBytes
		if rec.Snapshot != nil || tn.recoveredEffects > 0 {
			var snapIndex uint64
			if rec.Snapshot != nil {
				snapIndex = rec.Snapshot.Index
			}
			cfg.Logger.Info("tenant recovered",
				"tenant", tc.Name, "incarnation", tn.incarnation,
				"snapshot_index", snapIndex, "effects_replayed", tn.recoveredEffects,
				"truncated_bytes", rec.TruncatedBytes)
		}
	}

	tn.sub = tn.ctl // the recovered controller, when there was history
	if cfg.Paranoid {
		// Seed the oracle with the recovered totals, so the safety counter
		// spans incarnations.
		tn.orc = oracle.Wrap(tn.ctl, tr, tc.M, tc.W,
			oracle.WithMessages(func() int64 { return tn.ctl.Counters().Get(stats.CounterMoves) }),
			oracle.WithBaseline(tn.ctl.Granted(), tn.ctl.Counters().Get(stats.CounterRejects)))
		tn.sub = tn.orc
	}
	return tn, nil
}

// TenantView is one tenant namespace as one reading sees it, and the only
// way anything outside the serving path reads a tenant: /metricsz renders
// a slice of them, cmd/dynctrld logs them and the tests compare them.
type TenantView struct {
	// Name, the contract, the signature of the initial tree as sent in
	// Welcome, and the durability incarnation recovered at boot (0 without
	// a WAL) are fixed at boot.
	Name              string
	M, W              int64
	TopologySignature uint64
	Incarnation       uint64

	// The engine, read in one hold of the tenant's lock and so of one
	// instant: the tree's size and height, the controller's own counters
	// (CtlGrants is the controller's Granted()), the runs submit executed
	// with the requests they carried and the largest one, the reject wave
	// (Waved once the first reject is decided, WaveGranted the grant total
	// it announced), the oracle's violations (a copy; nil when not
	// paranoid) and the WAL engine's counters (zero without a WAL).
	Nodes, Height                             int
	Moves, CtlGrants, CtlRejects, TopoChanges int64
	Runs, RunRequests                         int64
	MaxRun                                    int
	Waved                                     bool
	WaveGranted                               int64
	Violations                                []oracle.Violation
	WAL                                       persist.Stats

	// What the server answered over the network for this tenant, and its
	// connections: bound now, ever bound, and reaped by the idle deadline.
	// Each is loaded once, after the engine.
	Ops, Grants, Rejects, Errors        int64
	ConnsOpen, ConnsTotal, IdleTimeouts int64

	// Durable is set when the tenant logs to a WAL; the recovery numbers,
	// effects replayed and torn-tail bytes truncated at boot, are zero
	// without one.
	Durable                 bool
	RecoveredEffects        int
	RecoveredTruncatedBytes int64

	// Traced is set when the tenant has a tracer; Trace is its digest, read
	// in the tracer's own critical section, and zero without one.
	Traced bool
	Trace  obs.Digest
}

// view reads the tenant once. The engine part waits for the run in flight,
// if there is one, and reads a state no run is changing, so Nodes is the
// initial tree plus or minus exactly the TopoChanges counted. Size and
// Height are O(1) reads, whatever the number of ids ever handed out.
func (t *tenant) view() TenantView {
	v := TenantView{
		Name:                    t.name,
		M:                       t.cfg.M,
		W:                       t.cfg.W,
		TopologySignature:       t.topoSig,
		Incarnation:             t.incarnation,
		Durable:                 t.eng != nil,
		RecoveredEffects:        t.recoveredEffects,
		RecoveredTruncatedBytes: t.recoveredTrunc,
		Traced:                  t.tracer != nil,
	}
	t.mu.Lock()
	v.Nodes, v.Height = t.tr.Size(), t.tr.Height()
	ctrs := t.ctl.Counters()
	v.Moves = ctrs.Get(stats.CounterMoves)
	v.CtlGrants = ctrs.Get(stats.CounterGrants)
	v.CtlRejects = ctrs.Get(stats.CounterRejects)
	v.TopoChanges = ctrs.Get(stats.CounterTopoChanges)
	v.Runs, v.RunRequests, v.MaxRun = t.runs, t.runReqs, t.maxRun
	v.Waved, v.WaveGranted = t.waved, t.waveGranted
	if t.orc != nil {
		v.Violations = slices.Clone(t.orc.Violations())
	}
	if t.eng != nil {
		v.WAL = t.eng.StatsSnapshot()
	}
	t.mu.Unlock()
	v.Ops, v.Grants, v.Rejects, v.Errors = t.ops.Load(), t.grants.Load(), t.rejects.Load(), t.errs.Load()
	v.ConnsOpen, v.ConnsTotal, v.IdleTimeouts = t.connsOpen.Load(), t.connsTotal.Load(), t.idleTimeouts.Load()
	v.Trace = t.tracer.Snapshot()
	return v
}
