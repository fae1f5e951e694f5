package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
)

// This file is the adversarial scenario engine: a small declarative
// Scenario vocabulary (topology × controller × workload × faults), a
// catalog of named scenarios covering the stress axes of the paper, and a
// runner that executes one scenario over one named transport schedule with
// the oracle invariant checkers always on.
//
// Every run is reproducible from (scenario name, scheduler name, seed):
// topology construction, request generation, and fault injection all draw
// from seed-derived sources, and the tree's node ids are allocation-order
// deterministic. Because the protocol processes one request at a time and
// its per-drain message handlers commute (a reject flood is idempotent,
// climbs and descents are chains), the outcome trace — and even the
// transport message count — is invariant across delivery schedules; the
// TraceHash in the result makes that property testable, and the golden
// corpus under testdata/ pins it across revisions.

// TopologySpec names an initial tree shape.
type TopologySpec struct {
	// Kind is "balanced" (uniformly random attachment), "path", or "star".
	Kind string `json:"kind"`
	// Nodes is the initial tree size.
	Nodes int `json:"nodes"`
}

// WorkloadSpec names the request generator driving a scenario.
type WorkloadSpec struct {
	// Kind is "churn", "hotspot", or "deeppath".
	Kind string `json:"kind"`
	// Mix names the churn mix: "default", "grow", "shrink", "event", or
	// "storm" (used by churn and hotspot).
	Mix string `json:"mix,omitempty"`
	// HotPct is the hotspot concentration percentage.
	HotPct int `json:"hot_pct,omitempty"`
	// MinSize floors the tree size under removal-heavy mixes.
	MinSize int `json:"min_size,omitempty"`
}

// FaultSpec injects node crash/recovery faults: every CrashEvery-th request
// is replaced by the graceful deletion of a random non-root node (the
// paper's deletion handoff: the node's whiteboard moves to its parent
// before the node leaves), and RecoverAfter requests later the crashed
// node's capacity is recovered by re-inserting a leaf at a random node.
type FaultSpec struct {
	CrashEvery   int `json:"crash_every,omitempty"`
	RecoverAfter int `json:"recover_after,omitempty"`
	// MaxCrashes bounds the number of injected crashes (0 = unbounded).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// DurabilitySpec configures the crash-restart fault axis: the run logs
// every decided effect through an internal/persist WAL (in a throwaway
// directory) and, every CrashEvery requests, the engine kills the whole
// in-memory controller stack — tree, runtime, driver state — exactly as a
// kill -9 would, then recovers it from the latest snapshot plus WAL replay
// before continuing the trace. Because recovery is exact, the resulting
// trace must be indistinguishable from a run that never crashed; the
// golden corpus and TestCrashRestartMatchesUndisturbedRun pin that.
type DurabilitySpec struct {
	// CrashEvery crashes and recovers the stack every n requests (0
	// disables the axis).
	CrashEvery int `json:"crash_every,omitempty"`
	// SnapshotEvery checkpoints the full state every n logged effects (0:
	// recovery replays the whole log from the initial topology).
	SnapshotEvery int64 `json:"snapshot_every,omitempty"`
	// MaxCrashes bounds the injected crashes (0 = unbounded).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// Scenario declaratively describes one adversarial run.
type Scenario struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`

	Topology   TopologySpec   `json:"topology"`
	Controller string         `json:"controller"` // "dynamic", "core", "core-serials"
	Workload   WorkloadSpec   `json:"workload"`
	Faults     FaultSpec      `json:"faults,omitempty"`
	Durability DurabilitySpec `json:"durability,omitempty"`

	// Requests is the submission count of a regular run; LongRequests (if
	// set) replaces it in long mode (the nightly sweep).
	Requests     int `json:"requests"`
	LongRequests int `json:"long_requests,omitempty"`

	// M and W are the permit contract the scenario (and its oracle) runs
	// under.
	M int64 `json:"m"`
	W int64 `json:"w"`
}

// ScenarioResult summarizes one scenario × scheduler run. Everything
// needed to reproduce the run (scenario, scheduler, seed) and to pin its
// behavior (trace hash, counts) is included, so the JSON output of
// cmd/scenario doubles as a regression artifact.
type ScenarioResult struct {
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

	TraceHash  string             `json:"trace_hash"`
	Violations []oracle.Violation `json:"violations,omitempty"`
}

// MixByName resolves the named churn mixes of the scenario vocabulary.
func MixByName(name string) (Mix, error) {
	switch name {
	case "", "default":
		return DefaultMix(), nil
	case "grow":
		return GrowOnlyMix(), nil
	case "shrink":
		return ShrinkHeavyMix(), nil
	case "event":
		return EventOnlyMix(), nil
	case "storm":
		// Churn storm: almost every request moves the topology.
		return Mix{AddLeaf: 35, RemoveLeaf: 30, AddInternal: 15, RemoveInternal: 15, Event: 5}, nil
	default:
		return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
	}
}

// Catalog returns the named scenario catalog. Each entry stresses one axis
// of the controller: request skew, topology churn, path depth, crash
// faults, permit exhaustion, and serial carrying.
func Catalog() []Scenario {
	return []Scenario{
		{
			Name:       "hotspot-skew",
			Notes:      "80% of requests hammer one deep pivot's subtree; static packages must keep absorbing the hot node",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 96},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "hotspot", HotPct: 80},
			Requests:   1000, LongRequests: 8000,
			M: 2000, W: 400,
		},
		{
			Name:       "churn-storm",
			Notes:      "95% topological churn at the size floor; stores are created, handed off and deleted constantly",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "storm", MinSize: 16},
			Requests:   900, LongRequests: 6000,
			M: 1500, W: 300,
		},
		{
			Name:       "deep-path-adversary",
			Notes:      "requests ride the tip of an ever-deepening path; filler search and drop-point splitting at maximal distance",
			Topology:   TopologySpec{Kind: "path", Nodes: 64},
			Controller: "core",
			Workload:   WorkloadSpec{Kind: "deeppath"},
			Requests:   600, LongRequests: 2400,
			M: 800, W: 160,
		},
		{
			Name:       "join-leave-crashes",
			Notes:      "churn plus periodic crash/recovery of random non-root nodes via the graceful-deletion handoff",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "default", MinSize: 24},
			Faults:     FaultSpec{CrashEvery: 20, RecoverAfter: 7},
			Requests:   800, LongRequests: 5000,
			M: 2500, W: 500,
		},
		{
			Name:       "exhaustion-reject-wave",
			Notes:      "tight permit budget; the reject wave must flood legally (>= M-W granted) and finally",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 48},
			Controller: "core",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "event"},
			Requests:   400, LongRequests: 1200,
			M: 120, W: 60,
		},
		{
			Name:       "serial-names",
			Notes:      "fixed-U core carrying explicit serial intervals; every grant's serial must be fresh and in range",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 56},
			Controller: "core-serials",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "event"},
			Requests:   500, LongRequests: 2000,
			M: 400, W: 80,
		},
		{
			Name:       "crash-restart",
			Notes:      "kill -9 the whole controller stack mid-run and recover it from WAL + snapshot; the trace must continue exactly as if the crash never happened",
			Topology:   TopologySpec{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "default", MinSize: 24},
			Durability: DurabilitySpec{CrashEvery: 150, SnapshotEvery: 100, MaxCrashes: 3},
			Requests:   700, LongRequests: 4000,
			M: 2500, W: 500,
		},
		{
			Name:       "grow-only-flood",
			Notes:      "grow-only joins from a star; the unknown-U driver must keep re-estimating U as the tree explodes",
			Topology:   TopologySpec{Kind: "star", Nodes: 32},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "grow"},
			Requests:   700, LongRequests: 4000,
			M: 3000, W: 600,
		},
	}
}

// ScenarioByName finds a catalog scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

// buildTopology constructs the initial tree of a scenario.
func buildTopology(spec TopologySpec, seed int64) (*tree.Tree, error) {
	tr, _ := tree.New()
	return tr, BuildTopology(tr, spec, seed)
}

// deepestNode returns the deepest live node, breaking depth ties by the
// smallest id so the choice is deterministic.
func deepestNode(tr *tree.Tree) tree.NodeID {
	best, bestD := tr.Root(), -1
	for _, id := range tr.Nodes() {
		if d, err := tr.Depth(id); err == nil && d > bestD {
			best, bestD = id, d
		}
	}
	return best
}

// faultInjector replaces scheduled requests with crash (graceful deletion)
// and recovery (leaf re-insertion) requests. A fault only counts — and a
// crash only schedules its recovery — once the engine confirms the
// controller granted it: a rejected deletion leaves the node in place, so
// recovering it would skew the scenario the report describes.
type faultInjector struct {
	spec       FaultSpec
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

func newFaultInjector(spec FaultSpec, tr *tree.Tree, seed int64) *faultInjector {
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

// RunScenario executes one scenario over the named transport schedule with
// the oracle always on. Everything is derived from seed; two calls with
// identical arguments produce identical results (including TraceHash), and
// for the single-threaded schedulers the trace is also identical across
// scheduler names.
func RunScenario(sc Scenario, scheduler string, seed int64, long bool) (ScenarioResult, error) {
	res := ScenarioResult{
		Scenario:  sc.Name,
		Scheduler: scheduler,
		Seed:      seed,
		Long:      long,
	}
	requests := sc.Requests
	if long && sc.LongRequests > 0 {
		requests = sc.LongRequests
	}

	tr, err := buildTopology(sc.Topology, seed)
	if err != nil {
		return res, err
	}
	rt, err := sim.NewRuntime(scheduler, seed)
	if err != nil {
		return res, err
	}
	counters := stats.NewCounters()

	// U must bound the nodes ever to exist: the initial topology plus at
	// most one insertion per request.
	u := int64(sc.Topology.Nodes + requests + 4)
	var target oracle.Target
	var dyn *dist.Dynamic // set for "dynamic": the durability axis snapshots it
	opts := []oracle.Option{oracle.WithMessages(rt.Messages)}
	switch sc.Controller {
	case "dynamic":
		dyn = dist.NewDynamic(tr, rt, sc.M, sc.W, false, counters)
		target = dyn
	case "core":
		core := dist.NewCore(tr, rt, u, sc.M, sc.W, dist.WithCounters(counters))
		target = dist.NewSubmitter(core, rt)
	case "core-serials":
		core := dist.NewCore(tr, rt, u, sc.M, sc.W,
			dist.WithCounters(counters),
			dist.WithSerials(pkgstore.Interval{Lo: 1, Hi: sc.M}))
		target = dist.NewSubmitter(core, rt)
		opts = append(opts, oracle.WithSerials())
	default:
		return res, fmt.Errorf("workload: unknown controller %q", sc.Controller)
	}
	orc := oracle.Wrap(target, tr, sc.M, sc.W, opts...)

	var gen Generator
	switch sc.Workload.Kind {
	case "churn":
		mix, err := MixByName(sc.Workload.Mix)
		if err != nil {
			return res, err
		}
		churn := NewChurn(tr, mix, seed+1)
		if sc.Workload.MinSize > 0 {
			churn.SetMinSize(sc.Workload.MinSize)
		}
		gen = churn
	case "hotspot":
		gen = NewHotspot(tr, deepestNode(tr), sc.Workload.HotPct, seed+1)
	case "deeppath":
		gen = NewDeepPath(tr)
	default:
		return res, fmt.Errorf("workload: unknown workload %q", sc.Workload.Kind)
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
			return res, fmt.Errorf("workload: the durability axis requires the \"dynamic\" controller, scenario uses %q", sc.Controller)
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
	captureState := func() *persist.State {
		return &persist.State{
			Index:       eng.AppendedIndex(),
			Incarnation: eng.Incarnation(),
			M:           sc.M,
			W:           sc.W,
			Tree:        tr.Snapshot(),
			Ctl:         dyn.State(),
			Counters:    counters.Snapshot(),
		}
	}
	oneReq := make([]controller.Request, 1)
	oneRes := make([]controller.BatchResult, 1)

	hash := fnv.New64a()
	var word [8]byte
	hashInt := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		hash.Write(word[:])
	}

	for i := 0; i < requests; i++ {
		req, injected := faults.next(i)
		if injected == faultNone {
			var ok bool
			req, ok = gen.Next()
			if !ok {
				break
			}
		}
		res.Requests++
		g, err := orc.Submit(req)
		if err != nil {
			res.Errors++
			hashInt(-1)
			continue
		}
		faults.confirm(injected, i, g.Outcome == controller.Granted)
		hashInt(int64(g.Outcome))
		hashInt(g.Serial)
		hashInt(int64(g.NewNode))
		if dp, ok := gen.(*DeepPath); ok {
			dp.Observe(g)
		}

		if eng == nil {
			continue
		}
		oneReq[0], oneRes[0] = req, controller.BatchResult{Grant: g}
		if err := eng.CommitEffects(oneReq, oneRes); err != nil {
			return res, err
		}
		if eng.ShouldCheckpoint() {
			if err := eng.Checkpoint(captureState()); err != nil {
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
			var rec *persist.Recovery
			eng, rec, err = persist.Open(walDir, persist.Options{SnapshotEvery: dur.SnapshotEvery})
			if err != nil {
				return res, err
			}
			if rec.Snapshot != nil {
				if err := persist.RestoreInto(rec.Snapshot, tr, counters); err != nil {
					return res, err
				}
				dyn, err = dist.RestoreDynamic(tr, rt, rec.Snapshot.Ctl, counters)
				if err != nil {
					return res, err
				}
			} else {
				counters.Reset()
				if err := tr.Restore(bootSnap); err != nil {
					return res, err
				}
				dyn = dist.NewDynamic(tr, rt, sc.M, sc.W, false, counters)
			}
			if _, err = persist.Replay(rec.Tail, dyn); err != nil {
				return res, err
			}
			// The recovered incarnation gets a fresh oracle seeded with the
			// totals the previous one confirmed, so safety keeps counting
			// across the restart; violations accumulate across incarnations.
			res.Violations = append(res.Violations, orc.Violations()...)
			orc = oracle.Wrap(dyn, tr, sc.M, sc.W,
				oracle.WithMessages(rt.Messages),
				oracle.WithBaseline(orc.Granted(), orc.Rejected(), nil))
		}
	}

	res.Granted = orc.Granted()
	res.Rejected = orc.Rejected()
	res.Crashes = faults.crashes
	res.Recoveries = faults.recoveries
	res.TopoChanges = counters.Get(stats.CounterTopoChanges)
	res.TransportMessages = msgBase + rt.Messages()
	res.ControlMessages = counters.Get(dist.CounterControl)
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
	res.TraceHash = fmt.Sprintf("%016x", hash.Sum64())
	return res, nil
}

// Sweep runs every scenario across every named scheduler and returns the
// matrix of results. It stops early only on engine errors (unknown names,
// topology failures); oracle violations are reported in the results.
func Sweep(scenarios []Scenario, schedulers []string, seed int64, long bool) ([]ScenarioResult, error) {
	out := make([]ScenarioResult, 0, len(scenarios)*len(schedulers))
	for _, sc := range scenarios {
		for _, sched := range schedulers {
			res, err := RunScenario(sc, sched, seed, long)
			if err != nil {
				return out, fmt.Errorf("scenario %s × %s: %w", sc.Name, sched, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}
