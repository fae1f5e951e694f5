package pipeline_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// gatedSubmitter blocks the first SubmitBatch until released, so a test
// can deterministically pile concurrent submitters into the pipeline's
// queue while the leader is busy — no sleeps, no timing assumptions.
type gatedSubmitter struct {
	inner   controller.BatchSubmitter
	release chan struct{}
	once    sync.Once
}

func (g *gatedSubmitter) SubmitBatch(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	g.once.Do(func() { <-g.release })
	return g.inner.SubmitBatch(reqs, out)
}

// TestPipelineCombinesDeterministically proves the combining behavior
// without timing dependence: while the first leader is held inside the
// core, every other client enqueues; on release the leader must drain all
// of them in exactly one more cycle. The cycle hook observes the cycle
// boundaries deterministically.
func TestPipelineCombinesDeterministically(t *testing.T) {
	const followers = 12
	tr := buildTree(t, 16, 19)
	ctl := dist.NewDynamic(tr, sim.NewDeterministic(23), 1000, 200, false, nil)
	gate := &gatedSubmitter{inner: ctl, release: make(chan struct{})}

	var (
		mu      sync.Mutex
		batches []int
	)
	pl := pipeline.New(gate,
		pipeline.WithMaxBatch(followers+1),
		pipeline.WithCycleHook(func(_, requests int, _ time.Duration) {
			mu.Lock()
			batches = append(batches, requests)
			mu.Unlock()
		}))

	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := pl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	wg.Add(1)
	go submit() // becomes leader and blocks inside the gated core

	// Wait — deterministically, by observing the pipeline's own queue
	// accounting — until the leader has taken its batch and every follower
	// is enqueued behind it. Calls are counted under the pipeline lock at
	// enqueue time, so Calls == followers+1 implies all followers queued.
	for pl.Stats().Calls < 1 {
		runtime.Gosched()
	}
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go submit()
	}
	for pl.Stats().Calls < followers+1 {
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()
	pl.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("leadership cycles %v, want exactly [1 %d]", batches, followers)
	}
	if batches[0] != 1 || batches[1] != followers {
		t.Fatalf("batch sizes %v, want [1 %d]: followers were not combined into one cycle",
			batches, followers)
	}
	st := pl.Stats()
	if st.Batches != 2 || st.MaxBatch != followers {
		t.Fatalf("stats %+v disagree with hook observations %v", st, batches)
	}
}
