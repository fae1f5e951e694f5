package dist_test

import (
	"testing"

	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// TestDeterministicVsConcurrentRuntime runs the same workload through the
// seeded deterministic scheduler and the goroutine-based concurrent
// scheduler. The protocol keeps only commutative message sets in flight, so
// the outcome must not depend on delivery order: both runs grant the same
// requests, build the same tree, and never exceed the permit budget. Run
// under -race this also exercises the concurrent runtime's synchronization.
func TestDeterministicVsConcurrentRuntime(t *testing.T) {
	const (
		n0       = 32
		m        = 300
		w        = 30
		requests = 1200
	)
	type outcome struct {
		res  workload.Result
		size int
		ever int
	}
	run := func(t *testing.T, rt sim.Runtime, seed int64) outcome {
		t.Helper()
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n0}, seed); err != nil {
			t.Fatal(err)
		}
		ctl := dist.NewDynamic(tr, rt, m, w, false, stats.NewCounters())
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+1)
		gen.SetMinSize(8)
		res, err := workload.Run(ctl, gen, requests)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, size: tr.Size(), ever: tr.EverExisted()}
	}

	for _, seed := range []int64{1, 2, 5} {
		det := run(t, sim.NewDeterministic(seed), seed)
		conc := run(t, sim.NewConcurrent(4), seed)
		if det.res != conc.res {
			t.Fatalf("seed %d: results diverged: deterministic %+v, concurrent %+v", seed, det.res, conc.res)
		}
		if det.size != conc.size || det.ever != conc.ever {
			t.Fatalf("seed %d: trees diverged: %d/%d vs %d/%d nodes",
				seed, det.size, det.ever, conc.size, conc.ever)
		}
		if det.res.Granted > m {
			t.Fatalf("seed %d: SAFETY: granted %d > M=%d", seed, det.res.Granted, m)
		}
		if det.res.Granted == 0 {
			t.Fatalf("seed %d: nothing granted", seed)
		}
	}
}
