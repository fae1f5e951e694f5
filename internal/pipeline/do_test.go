package pipeline

import (
	"errors"
	"sync"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// stampedRun is a server-shaped run: the caller's requests and results plus
// a receipt the backend fills in, all owned by the caller and reused.
type stampedRun struct {
	backend *stampingBackend
	reqs    []controller.Request
	results []controller.BatchResult
	stamp   int64 // receipt: derived by the backend from this run's requests
}

func (r *stampedRun) Run() { r.results, r.stamp = r.backend.submit(r.reqs, r.results[:0]) }

// stampingBackend grants everything and returns, as the run's receipt, the
// sum of the run's own node ids. It is not thread-safe: the race detector
// checks that the pipeline only ever runs it from one leader at a time.
type stampingBackend struct{ driven int64 }

func (b *stampingBackend) submit(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, int64) {
	var stamp int64
	for _, r := range reqs {
		stamp += int64(r.Node)
		out = append(out, controller.BatchResult{Grant: controller.Grant{Outcome: controller.Granted, Serial: int64(r.Node)}})
	}
	b.driven += int64(len(reqs))
	return out, stamp
}

// TestDoReceiptIsTheCallersOwn: many goroutines push runs through one
// pipeline; every caller must read back exactly the receipt and results
// stamped from its own requests, never a neighbour's — the property the
// server's address-keyed side table used to provide, now carried by the run
// itself across the leader handoff.
func TestDoReceiptIsTheCallersOwn(t *testing.T) {
	const submitters, perG, runLen = 16, 300, 5
	backend := &stampingBackend{}
	pl := New(nil, WithMaxBatch(4*runLen))

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := &stampedRun{backend: backend, reqs: make([]controller.Request, runLen)}
			for i := 0; i < perG; i++ {
				var want int64
				for j := range run.reqs {
					id := tree.NodeID(g*1_000_000 + i*runLen + j + 1)
					run.reqs[j] = controller.Request{Node: id}
					want += int64(id)
				}
				if err := pl.Do(len(run.reqs), run); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if run.stamp != want {
					t.Errorf("goroutine %d run %d: receipt %d, want %d (a neighbour's?)", g, i, run.stamp, want)
					return
				}
				if len(run.results) != runLen {
					t.Errorf("goroutine %d run %d: %d results, want %d", g, i, len(run.results), runLen)
					return
				}
				for j, br := range run.results {
					if br.Grant.Serial != int64(run.reqs[j].Node) {
						t.Errorf("goroutine %d run %d: result %d answers node %d, want %d",
							g, i, j, br.Grant.Serial, run.reqs[j].Node)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	pl.Close()

	st := pl.Stats()
	if want := int64(submitters * perG * runLen); st.Requests != want || backend.driven != want {
		t.Errorf("stats count %d requests, backend drove %d, want %d", st.Requests, backend.driven, want)
	}
	if want := int64(submitters * perG); st.Calls != want {
		t.Errorf("stats count %d calls, want %d", st.Calls, want)
	}
	if err := pl.Do(1, &stampedRun{backend: backend}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: err %v, want ErrClosed", err)
	}
}

// TestDoAllocatesNothing: the run path a server connection takes — one
// reusable run value pushed through Do again and again — allocates nothing.
func TestDoAllocatesNothing(t *testing.T) {
	pl := New(nil)
	run := &stampedRun{backend: &stampingBackend{}, reqs: make([]controller.Request, 64)}
	run.results = make([]controller.BatchResult, 0, len(run.reqs))
	allocs := testing.AllocsPerRun(1000, func() {
		if err := pl.Do(len(run.reqs), run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Do allocates %.1f objects per run, want 0", allocs)
	}
}
