// Package scenario runs the adversarial scenario catalog of package
// workload: one scenario over one named transport schedule, the engine built
// over dist.Over(rt) like every other user of the message-passing model,
// with the oracle invariant checkers always on. It also holds the
// hostile-network family (hostile.go): specs pairing a concurrent wire
// workload with a faultnet schedule reproducible from (scenario, seed),
// kept out of package workload because they name faultnet rules. Their
// harness lives with internal/server's tests, which need its crash hook.
//
// Every run is reproducible from (scenario name, scheduler name, seed):
// topology construction, request generation, and fault injection all draw
// from seed-derived sources, and the tree's node ids are allocation-order
// deterministic. Because the protocol processes one request at a time and
// its per-drain message handlers commute (a reject flood is idempotent,
// climbs and descents are chains), the outcome trace — and even the
// transport message count — is invariant across delivery schedules; the
// TraceHash in the result makes that property testable, and the golden
// corpus internal/workload/testdata/golden_traces.json pins it across
// revisions.
package scenario

import (
	"fmt"
	"math/rand"
	"os"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/oracle"
	"dynctrl/internal/persist"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// Result summarizes one scenario × scheduler run. Everything
// needed to reproduce the run (scenario, scheduler, seed) and to pin its
// behavior (trace hash, counts) is included, so the JSON output of
// cmd/scenario doubles as a regression artifact.
type Result struct {
	Scenario  string `json:"scenario"`
	Scheduler string `json:"scheduler"`
	Seed      int64  `json:"seed"`
	Long      bool   `json:"long,omitempty"`

	Requests   int   `json:"requests"`
	Granted    int64 `json:"granted"`
	Rejected   int64 `json:"rejected"`
	Errors     int   `json:"errors"`
	Crashes    int   `json:"crashes"`
	Recoveries int   `json:"recoveries"`
	// Restarts counts whole-process crash/recovery cycles of the
	// durability axis (as opposed to Crashes, which counts single-node
	// graceful-deletion faults).
	Restarts int `json:"restarts,omitempty"`

	TopoChanges       int64 `json:"topo_changes"`
	TransportMessages int64 `json:"transport_messages"`
	ControlMessages   int64 `json:"control_messages"`
	FinalNodes        int   `json:"final_nodes"`
	FinalHeight       int   `json:"final_height"`

	// TraceHash is the oracle.TenantTrace hash of the verdict stream.
	TraceHash  string             `json:"trace_hash"`
	Violations []oracle.Violation `json:"violations,omitempty"`
}

// faultInjector replaces scheduled requests with crash (graceful deletion)
// and recovery (leaf re-insertion) requests. A fault only counts — and a
// crash only schedules its recovery — once the engine confirms the
// controller granted it: a rejected deletion leaves the node in place, so
// recovering it would skew the scenario the report describes.
type faultInjector struct {
	spec       workload.FaultSpec
	tr         *tree.Tree
	rng        *rand.Rand
	crashes    int
	recoveries int
	pending    []int // request indices at which a recovery is due
}

// faultKind tags what an injected request was, so the engine can confirm
// its outcome back into the injector.
type faultKind int

const (
	faultNone faultKind = iota
	faultCrash
	faultRecover
)

func newFaultInjector(spec workload.FaultSpec, tr *tree.Tree, seed int64) *faultInjector {
	return &faultInjector{spec: spec, tr: tr, rng: rand.New(rand.NewSource(seed))}
}

// next returns the fault request scheduled for submission index i, if any.
func (f *faultInjector) next(i int) (controller.Request, faultKind) {
	if f == nil || f.spec.CrashEvery <= 0 {
		return controller.Request{}, faultNone
	}
	if len(f.pending) > 0 && f.pending[0] <= i {
		f.pending = f.pending[1:]
		nodes := f.tr.Nodes()
		if len(nodes) == 0 {
			return controller.Request{}, faultNone
		}
		return controller.Request{Node: nodes[f.rng.Intn(len(nodes))], Kind: tree.AddLeaf}, faultRecover
	}
	if (i+1)%f.spec.CrashEvery != 0 {
		return controller.Request{}, faultNone
	}
	if f.spec.MaxCrashes > 0 && f.crashes >= f.spec.MaxCrashes {
		return controller.Request{}, faultNone
	}
	if f.tr.Size() < 3 {
		return controller.Request{}, faultNone
	}
	root := f.tr.Root()
	nodes := f.tr.Nodes()
	for attempt := 0; attempt < 8; attempt++ {
		victim := nodes[f.rng.Intn(len(nodes))]
		if victim == root {
			continue
		}
		kind := tree.RemoveLeaf
		if !f.tr.IsLeaf(victim) {
			kind = tree.RemoveInternal
		}
		return controller.Request{Node: victim, Kind: kind}, faultCrash
	}
	return controller.Request{}, faultNone
}

// confirm records the outcome of an injected request: only granted crashes
// count (and schedule their recovery), only granted recoveries count.
func (f *faultInjector) confirm(kind faultKind, i int, granted bool) {
	if !granted {
		return
	}
	switch kind {
	case faultCrash:
		f.crashes++
		if f.spec.RecoverAfter > 0 {
			f.pending = append(f.pending, i+f.spec.RecoverAfter)
		}
	case faultRecover:
		f.recoveries++
	}
}

// run executes one scenario over the named transport schedule with
// the oracle always on. Everything is derived from seed; two calls with
// identical arguments produce identical results (including TraceHash), and
// the trace is also identical across scheduler names.
func run(sc workload.Scenario, scheduler string, seed int64, long bool) (Result, error) {
	res := Result{
		Scenario:  sc.Name,
		Scheduler: scheduler,
		Seed:      seed,
		Long:      long,
	}
	requests := sc.Requests
	if long && sc.LongRequests > 0 {
		requests = sc.LongRequests
	}

	tr, _ := tree.New()
	if err := tree.Build(tr, sc.Topology, seed); err != nil {
		return res, err
	}
	rt, err := sim.NewRuntime(scheduler, seed)
	if err != nil {
		return res, err
	}
	tp := dist.Over(rt)

	// U must bound the nodes ever to exist: the initial topology plus at
	// most one insertion per request.
	u := int64(sc.Topology.Nodes + requests + 4)
	// target is what the run drives and reads the costs of; recovery
	// replaces it.
	var target interface {
		controller.Submitter
		Counters() *stats.Counters
	}
	var dyn *controller.Dynamic // set for "dynamic": the durability axis snapshots it
	opts := []oracle.Option{oracle.WithMessages(rt.Messages)}
	switch sc.Controller {
	case "dynamic":
		dyn = tp.NewDynamic(tr, sc.M, sc.W)
		target = dyn
	case "core":
		target = tp.NewCore(tr, u, sc.M, sc.W)
	case "core-serials":
		target = tp.NewCore(tr, u, sc.M, sc.W,
			controller.WithSerials(pkgstore.Interval{Lo: 1, Hi: sc.M}))
		opts = append(opts, oracle.WithSerials())
	default:
		return res, fmt.Errorf("scenario: unknown controller %q", sc.Controller)
	}
	orc := oracle.Wrap(target, tr, sc.M, sc.W, opts...)

	var gen workload.Generator
	switch sc.Workload.Kind {
	case "churn":
		mix, err := workload.MixByName(sc.Workload.Mix)
		if err != nil {
			return res, err
		}
		churn := workload.NewChurn(tr, mix, seed+1)
		if sc.Workload.MinSize > 0 {
			churn.SetMinSize(sc.Workload.MinSize)
		}
		gen = churn
	case "hotspot":
		gen = workload.NewHotspot(tr, tr.Deepest(), sc.Workload.HotPct, seed+1)
	case "deeppath":
		gen = workload.NewDeepPath(tr)
	default:
		return res, fmt.Errorf("scenario: unknown workload %q", sc.Workload.Kind)
	}
	faults := newFaultInjector(sc.Faults, tr, seed+2)

	// Durability axis: log effects to a throwaway WAL directory so crash
	// points can drop the whole in-memory stack and recover it.
	dur := sc.Durability
	var (
		eng      *persist.Engine
		walDir   string
		bootSnap *tree.Snapshot
		msgBase  int64
	)
	if dur.CrashEvery > 0 {
		if dyn == nil {
			return res, fmt.Errorf("scenario: the durability axis requires the \"dynamic\" controller, scenario uses %q", sc.Controller)
		}
		walDir, err = os.MkdirTemp("", "dynctrl-wal-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(walDir)
		// Recovery without a snapshot replays the whole log on top of the
		// initial topology; capture it before any traffic mutates it.
		bootSnap = tr.Snapshot()
		eng, _, err = persist.Open(walDir, persist.Options{SnapshotEvery: dur.SnapshotEvery})
		if err != nil {
			return res, err
		}
		defer func() { eng.Close() }() //nolint:errcheck // idempotent safety net
	}
	oneReq := make([]controller.Request, 1)
	oneRes := make([]controller.BatchResult, 1)

	trace := oracle.NewTenantTrace(sc.Name, sc.M)

	for i := 0; i < requests; i++ {
		req, injected := faults.next(i)
		if injected == faultNone {
			var ok bool
			req, ok = gen.Next()
			if !ok {
				break
			}
		}
		g, err := orc.Submit(req)
		trace.Record(g, err)
		if err != nil {
			continue
		}
		faults.confirm(injected, i, g.Outcome == controller.Granted)

		if eng == nil {
			continue
		}
		oneReq[0], oneRes[0] = req, controller.BatchResult{Grant: g}
		if err := eng.CommitEffects(oneReq, oneRes); err != nil {
			return res, err
		}
		if eng.ShouldCheckpoint() {
			if err := eng.Checkpoint(eng.Capture(sc.M, sc.W, tr, dyn)); err != nil {
				return res, err
			}
		}
		if (i+1)%dur.CrashEvery == 0 && i+1 < requests &&
			(dur.MaxCrashes == 0 || res.Restarts < dur.MaxCrashes) {
			// Crash: drop every in-memory layer (the un-fsynced WAL buffer
			// included — that is what a kill -9 loses) and recover from disk.
			msgBase += rt.Messages()
			eng.Abandon()
			res.Restarts++
			rt, err = sim.NewRuntime(scheduler, seed+int64(res.Restarts)*7919)
			if err != nil {
				return res, err
			}
			tp = dist.Over(rt)
			var rec *persist.Recovery
			eng, rec, err = persist.Open(walDir, persist.Options{SnapshotEvery: dur.SnapshotEvery})
			if err != nil {
				return res, err
			}
			// Recover as the daemon does, from the initial topology, which
			// recovery replaces with the snapshot's, if any.
			if err := tr.Restore(bootSnap); err != nil {
				return res, err
			}
			if dyn, _, err = persist.Recover(rec, tp, sc.M, sc.W, tr); err != nil {
				return res, err
			}
			target = dyn
			// The recovered incarnation gets a fresh oracle seeded with the
			// totals the previous one confirmed, so safety keeps counting
			// across the restart; violations accumulate across incarnations.
			res.Violations = append(res.Violations, orc.Violations()...)
			orc = oracle.Wrap(dyn, tr, sc.M, sc.W,
				oracle.WithMessages(rt.Messages),
				oracle.WithBaseline(orc.Granted(), orc.Rejected()))
		}
	}

	res.Requests = int(trace.Submitted)
	res.Errors = int(trace.Errors)
	res.Granted = orc.Granted()
	res.Rejected = orc.Rejected()
	res.Crashes = faults.crashes
	res.Recoveries = faults.recoveries
	res.TopoChanges = target.Counters().Get(stats.CounterTopoChanges)
	res.TransportMessages = msgBase + rt.Messages()
	res.ControlMessages = target.Counters().Get(stats.CounterControl)
	res.FinalNodes = tr.Size()
	res.FinalHeight = tr.Height()
	res.Violations = append(res.Violations, orc.Finish()...)
	if eng != nil {
		// End the final incarnation gracefully, then audit the whole
		// on-disk history with the cross-incarnation oracle.
		if err := eng.Close(); err != nil {
			return res, err
		}
		_, xviol, err := persist.VerifyDir(walDir, sc.M)
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, xviol...)
	}
	res.TraceHash = fmt.Sprintf("%016x", trace.Hash())
	return res, nil
}

// Sweep runs every scenario across every named scheduler and returns the
// matrix of results. It stops early only on engine errors (unknown names,
// topology failures); oracle violations are reported in the results.
func Sweep(scenarios []workload.Scenario, schedulers []string, seed int64, long bool) ([]Result, error) {
	out := make([]Result, 0, len(scenarios)*len(schedulers))
	for _, sc := range scenarios {
		for _, sched := range schedulers {
			res, err := run(sc, sched, seed, long)
			if err != nil {
				return out, fmt.Errorf("scenario %s × %s: %w", sc.Name, sched, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}
