package workload

import (
	"fmt"

	"dynctrl/internal/tree"
)

// This file is the vocabulary of the adversarial scenario engine: a small
// declarative Scenario (topology × controller × workload × faults) and a
// catalog of named scenarios covering the stress axes of the paper. The
// runner that executes one over a simulated transport with the oracle on is
// package scenario; nothing here knows an engine, so loadgen, which replays
// the catalog over the wire, links no simulator.

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

	Topology   tree.Shape     `json:"topology"`
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
// faults, permit exhaustion, and serial carrying. To add one, append it,
// pin its trace with go test ./internal/workload -run TestGoldenTraces
// -update and commit both: cmd/scenario, the schedule-invariance test and
// the nightly sweep take it from here.
func Catalog() []Scenario {
	return []Scenario{
		{
			Name:       "hotspot-skew",
			Notes:      "80% of requests hammer one deep pivot's subtree; static packages must keep absorbing the hot node",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 96},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "hotspot", HotPct: 80},
			Requests:   1000, LongRequests: 8000,
			M: 2000, W: 400,
		},
		{
			Name:       "churn-storm",
			Notes:      "95% topological churn at the size floor; stores are created, handed off and deleted constantly",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "storm", MinSize: 16},
			Requests:   900, LongRequests: 6000,
			M: 1500, W: 300,
		},
		{
			Name:       "deep-path-adversary",
			Notes:      "requests ride the tip of an ever-deepening path; filler search and drop-point splitting at maximal distance",
			Topology:   tree.Shape{Kind: "path", Nodes: 64},
			Controller: "core",
			Workload:   WorkloadSpec{Kind: "deeppath"},
			Requests:   600, LongRequests: 2400,
			M: 800, W: 160,
		},
		{
			Name:       "join-leave-crashes",
			Notes:      "churn plus periodic crash/recovery of random non-root nodes via the graceful-deletion handoff",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "default", MinSize: 24},
			Faults:     FaultSpec{CrashEvery: 20, RecoverAfter: 7},
			Requests:   800, LongRequests: 5000,
			M: 2500, W: 500,
		},
		{
			Name:       "exhaustion-reject-wave",
			Notes:      "tight permit budget; the reject wave must flood legally (>= M-W granted) and finally",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 48},
			Controller: "core",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "event"},
			Requests:   400, LongRequests: 1200,
			M: 120, W: 60,
		},
		{
			Name:       "serial-names",
			Notes:      "fixed-U core carrying explicit serial intervals; every grant's serial must be fresh and in range",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 56},
			Controller: "core-serials",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "event"},
			Requests:   500, LongRequests: 2000,
			M: 400, W: 80,
		},
		{
			Name:       "crash-restart",
			Notes:      "kill -9 the whole controller stack mid-run and recover it from WAL + snapshot; the trace must continue exactly as if the crash never happened",
			Topology:   tree.Shape{Kind: "balanced", Nodes: 64},
			Controller: "dynamic",
			Workload:   WorkloadSpec{Kind: "churn", Mix: "default", MinSize: 24},
			Durability: DurabilitySpec{CrashEvery: 150, SnapshotEvery: 100, MaxCrashes: 3},
			Requests:   700, LongRequests: 4000,
			M: 2500, W: 500,
		},
		{
			Name:       "grow-only-flood",
			Notes:      "grow-only joins from a star; the unknown-U driver must keep re-estimating U as the tree explodes",
			Topology:   tree.Shape{Kind: "star", Nodes: 32},
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
