package dist_test

import (
	"sync"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// TestDeterministicVsConcurrentRuntime runs each seeded workload once on its
// own and then several times at once, every copy on its own tree, runtime
// and transport in its own goroutine. A runtime and the envelopes of the
// transport over it belong to one controller, so the concurrent copies must
// match the lone run exactly: same grants, same tree, same message count,
// and never more than the permit budget. Run under -race this also checks
// that sim and dist keep no state shared between transports.
func TestDeterministicVsConcurrentRuntime(t *testing.T) {
	const (
		n0       = 32
		m        = 300
		w        = 30
		requests = 1200
		copies   = 4
	)
	type outcome struct {
		res      workload.Result
		size     int
		ever     int
		messages int64
		err      error
	}
	run := func(seed int64) outcome {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n0}, seed); err != nil {
			return outcome{err: err}
		}
		rt := sim.NewDeterministic(seed)
		counters := stats.NewCounters()
		ctl := dist.Over(rt).NewDynamic(tr, m, w, controller.WithDynamicCounters(counters))
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+1)
		gen.SetMinSize(8)
		res, err := workload.Run(ctl, gen, requests)
		return outcome{res: res, size: tr.Size(), ever: tr.EverExisted(),
			messages: dist.Over(rt).Cost(counters), err: err}
	}

	seeds := []int64{1, 2, 5}
	alone := make([]outcome, len(seeds))
	for i, seed := range seeds {
		alone[i] = run(seed)
		if err := alone[i].err; err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if alone[i].res.Granted > m {
			t.Fatalf("seed %d: SAFETY: granted %d > M=%d", seed, alone[i].res.Granted, m)
		}
		if alone[i].res.Granted == 0 {
			t.Fatalf("seed %d: nothing granted", seed)
		}
	}

	together := make([][copies]outcome, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func(i, c int, seed int64) {
				defer wg.Done()
				together[i][c] = run(seed)
			}(i, c, seed)
		}
	}
	wg.Wait()

	for i, seed := range seeds {
		for c, got := range together[i] {
			if got.err != nil {
				t.Fatalf("seed %d copy %d: %v", seed, c, got.err)
			}
			if got != alone[i] {
				t.Fatalf("seed %d copy %d diverged: alone %+v, concurrent %+v", seed, c, alone[i], got)
			}
		}
	}
}
