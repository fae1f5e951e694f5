package workload

import (
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/oracle"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

const nnSeed = 7

// nnStack builds one deterministic admission stack: same seed, same stack.
func nnStack(t *testing.T, m, w int64) (*tree.Tree, *controller.Dynamic) {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 32}, nnSeed); err != nil {
		t.Fatal(err)
	}
	rt, err := sim.NewRuntime("random", nnSeed)
	if err != nil {
		t.Fatal(err)
	}
	return tr, dist.Over(rt).NewDynamic(tr, m, w)
}

// TestNoisyNeighborIsolatedStacks is the in-process noisy-neighbor
// scenario: victim and flooder own fully separate stacks (exactly the
// multi-tenant server's partitioning), so the flood must not move the
// victim's verdicts by a single bit.
func TestNoisyNeighborIsolatedStacks(t *testing.T) {
	victimTree, _ := nnStack(t, 10_000, 5_000)
	probe, err := VictimProbe(victimTree, 300, nnSeed)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunNoisyNeighbor("b-team", 10_000, probe,
		func(disturbed bool) (controller.Submitter, func() ConcurrentResult, error) {
			_, victim := nnStack(t, 10_000, 5_000)
			if !disturbed {
				return victim, nil, nil
			}
			floodTree, floodCtl := nnStack(t, 50_000, 25_000)
			pl := pipeline.New(floodCtl)
			t.Cleanup(pl.Close)
			ct, err := NewConcurrentTrace(floodTree, 4, 500, ConcurrentMix{AddLeaf: 100}, nnSeed+1)
			if err != nil {
				return nil, nil, err
			}
			return victim, func() ConcurrentResult { return RunConcurrentChunked(pl, ct, 64) }, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("isolated stacks violated isolation: %v", res.Violations)
	}
	if res.Flood.Submitted != 2000 || res.Flood.Errors != 0 {
		t.Fatalf("flood did not run cleanly: %+v", res.Flood)
	}
	if res.Baseline.Granted == 0 {
		t.Fatal("victim probe granted nothing — the check is vacuous")
	}
}

// TestNoisyNeighborSharedStackIsCaught demonstrates the bug class the
// checker exists for: when both tenants share one stack (no partitioning),
// the flood's permits and serials interleave with the victim's and the
// isolation oracle must flag the moved verdict stream.
func TestNoisyNeighborSharedStackIsCaught(t *testing.T) {
	victimTree, _ := nnStack(t, 100_000, 50_000)
	probe, err := VictimProbe(victimTree, 300, nnSeed)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: a fresh shared stack, victim traffic only.
	_, ctl := nnStack(t, 100_000, 50_000)
	baseline := runProbe(ctl, "b-team", 100_000, probe)

	// Disturbed: a fresh identical stack, but the neighbor's grow-only
	// flood lands on the SAME stack before the victim's probe replays.
	// (Sequential on purpose: shared-state interference is deterministic —
	// the flood's leaf additions shift the node ids the victim's own
	// additions receive — so the detection does not depend on a race.)
	sharedTree, sharedCtl := nnStack(t, 100_000, 50_000)
	pl := pipeline.New(sharedCtl)
	t.Cleanup(pl.Close)
	ct, err := NewConcurrentTrace(sharedTree, 4, 500, ConcurrentMix{AddLeaf: 100}, nnSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	if flood := RunConcurrentChunked(pl, ct, 64); flood.Errors != 0 {
		t.Fatalf("flood errors: %+v", flood)
	}
	disturbed := runProbe(pl, "b-team", 100_000, probe)

	violations := oracle.CheckTenantIsolation(baseline, disturbed)
	if len(violations) == 0 {
		t.Fatal("shared stack passed the isolation check — the oracle is blind")
	}
	found := false
	for _, v := range violations {
		if v.Invariant == "tenant-verdict-trace" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v lack tenant-verdict-trace", violations)
	}
}
