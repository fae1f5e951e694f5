package controller_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func drainUntilReject(t *testing.T, sub ctl.Submitter, gen workload.Generator, cap int) (granted, rejected int) {
	t.Helper()
	for i := 0; i < cap; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatal("generator dried up")
		}
		g, err := sub.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		switch g.Outcome {
		case ctl.Granted:
			granted++
		case ctl.Rejected:
			rejected++
			return granted, rejected
		}
	}
	return granted, rejected
}

func TestIteratedSafetyAndLiveness(t *testing.T) {
	for _, tc := range []struct {
		name string
		m, w int64
	}{
		{"w-zero", 25, 0},
		{"w-small", 64, 3},
		{"w-half", 64, 32},
		{"w-large", 200, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 30}, 4); err != nil {
				t.Fatal(err)
			}
			u := int64(tr.Size()) + tc.m + 16
			it := ctl.Centralized.NewIterated(tr, u, tc.m, tc.w)
			gen := workload.NewChurn(tr, workload.EventOnlyMix(), 21)
			granted, _ := drainUntilReject(t, it, gen, int(tc.m)*4+100)
			if int64(granted) > tc.m {
				t.Fatalf("granted %d > M=%d", granted, tc.m)
			}
			if int64(granted) < tc.m-tc.w {
				t.Fatalf("granted %d < M−W=%d", granted, tc.m-tc.w)
			}
			if tc.w == 0 && int64(granted) != tc.m {
				t.Fatalf("W=0 must grant exactly M=%d, got %d", tc.m, granted)
			}
		})
	}
}

func TestIteratedIterationsBounded(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 20}, 9); err != nil {
		t.Fatal(err)
	}
	const m = 1 << 12
	it := ctl.Centralized.NewIterated(tr, int64(tr.Size())+m+16, m, 1)
	gen := workload.NewChurn(tr, workload.EventOnlyMix(), 5)
	drainUntilReject(t, it, gen, m*2+100)
	// O(log M/(W+1)) iterations: log2(4096/2) = 11, allow slack.
	if got := it.Iterations(); got > 11+4 {
		t.Fatalf("iterations = %d, want O(log M/(W+1)) ≈ 11", got)
	}
	if got := it.Iterations(); got < 2 {
		t.Fatalf("iterations = %d; waste-halving should iterate", got)
	}
}

func TestIteratedTerminating(t *testing.T) {
	tr, root := tree.New()
	const m = 12
	it := ctl.Centralized.NewIterated(tr, 64, m, 4, ctl.AsTerminating())
	granted := 0
	for i := 0; i < 100; i++ {
		g, err := it.Submit(ctl.Request{Node: root, Kind: tree.None})
		if errors.Is(err, ctl.ErrTerminated) {
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if g.Outcome == ctl.Granted {
			granted++
		}
	}
	if !it.Terminated() {
		t.Fatal("expected termination")
	}
	if granted < m-4 || granted > m {
		t.Fatalf("granted %d outside [M−W, M] = [%d, %d]", granted, m-4, m)
	}
	// Post-termination submits keep failing.
	if _, err := it.Submit(ctl.Request{Node: root, Kind: tree.None}); !errors.Is(err, ctl.ErrTerminated) {
		t.Fatalf("post-termination err = %v, want ErrTerminated", err)
	}
}

func TestIteratedTopologicalChurn(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 40}, 7); err != nil {
		t.Fatal(err)
	}
	const m = 300
	u := int64(tr.Size()) + m + 16
	it := ctl.Centralized.NewIterated(tr, u, m, 10)
	gen := workload.NewChurn(tr, workload.DefaultMix(), 77)
	granted, _ := drainUntilReject(t, it, gen, m*4)
	if granted < m-10 || granted > m {
		t.Fatalf("granted %d outside [%d, %d]", granted, m-10, m)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree validate after churn: %v", err)
	}
}

func TestIteratedMoveComplexityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep up to n=1024; skipped in -short")
	}
	// Obs 3.4: moves = O(U·log²U·log(M/(W+1))). The per-U normalized cost
	// should grow no faster than log²U (allow generous slack by asserting
	// the growth exponent of moves vs U stays well below 1.5).
	var series stats.Series
	for _, n := range []int{64, 128, 256, 512, 1024} {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, 3); err != nil {
			t.Fatal(err)
		}
		m := int64(2 * n)
		u := int64(n) + m + 16
		it := ctl.Centralized.NewIterated(tr, u, m, 0)
		gen := workload.NewChurn(tr, workload.EventOnlyMix(), 123)
		drainUntilReject(t, it, gen, int(m)*4)
		series.Append(float64(u), float64(it.Counters().Get(stats.CounterMoves)))
	}
	exp := series.GrowthExponent()
	if math.IsNaN(exp) || exp > 1.8 {
		t.Fatalf("moves grow with exponent %.2f vs U; want near-linear (≤1.8)", exp)
	}
}

func TestDynamicGrowAndShrink(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 16}, 2); err != nil {
		t.Fatal(err)
	}
	const m = 2000
	d := ctl.NewDynamic(tr, m, 50)
	gen := workload.NewChurn(tr, workload.DefaultMix(), 31)
	granted, _ := drainUntilReject(t, d, gen, m*4)
	if granted > m {
		t.Fatalf("granted %d > M", granted)
	}
	if granted < m-50 {
		t.Fatalf("granted %d < M−W = %d", granted, m-50)
	}
	if d.Iterations() < 2 {
		t.Fatalf("iterations = %d; the unknown-U driver should restart as the tree grows", d.Iterations())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestDynamicPolicyDoubleMaxN(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 8}, 6); err != nil {
		t.Fatal(err)
	}
	const m = 1500
	d := ctl.NewDynamic(tr, m, 20, ctl.WithPolicy(ctl.PolicyDoubleMaxN))
	gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 80, Event: 20}, 13)
	granted, _ := drainUntilReject(t, d, gen, m*4)
	if granted > m || granted < m-20 {
		t.Fatalf("granted %d outside [%d, %d]", granted, m-20, m)
	}
	if d.Iterations() < 2 {
		t.Fatalf("iterations = %d; growth should double the node count", d.Iterations())
	}
}

func TestDynamicTerminating(t *testing.T) {
	tr, root := tree.New()
	const m = 40
	d := ctl.NewDynamic(tr, m, 5, ctl.DynamicTerminating())
	granted := 0
	for i := 0; i < 400; i++ {
		g, err := d.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf})
		if errors.Is(err, ctl.ErrTerminated) {
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if g.Outcome == ctl.Granted {
			granted++
		}
	}
	if !d.Terminated() {
		t.Fatal("expected termination")
	}
	if granted < m-5 || granted > m {
		t.Fatalf("granted %d outside [%d, %d]", granted, m-5, m)
	}
}

// TestDynamicRejectsOnlyInsideItsWave pins what dynctrld reads the reject
// wave off: a Dynamic under churn answers no reject before its first and
// nothing but rejects after it, its Granted() equals the grants it answered
// and so never moves once it has rejected, and its CounterRejects equals
// the rejects it answered. A tenant takes CounterRejects > 0 as the wave
// and Granted() as the wave's final grant total, across restarts too, so
// the second run restores the controller from its State in the middle of
// the wave, the way recovery does. Runs are batches of 1 to 7 requests,
// the daemon's SubmitBatch.
func TestDynamicRejectsOnlyInsideItsWave(t *testing.T) {
	const m, w, requests = 120, 30, 600
	for _, restoreAt := range []int64{0, 25} {
		t.Run(fmt.Sprintf("restore-after-%d-rejects", restoreAt), func(t *testing.T) {
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 48}, 5); err != nil {
				t.Fatal(err)
			}
			d := ctl.Centralized.NewDynamic(tr, m, w)
			gen := workload.NewChurn(tr, workload.DefaultMix(), 17)
			var granted, rejected int64
			restored := false
			var reqs []ctl.Request
			var out []ctl.BatchResult
			for sent := 0; sent < requests; {
				if restoreAt > 0 && !restored && rejected >= restoreAt {
					counters := stats.NewCounters()
					if err := counters.Restore(d.Counters().Snapshot()); err != nil {
						t.Fatal(err)
					}
					var err error
					if d, err = ctl.Centralized.RestoreDynamic(tr, d.State(), counters); err != nil {
						t.Fatal(err)
					}
					restored = true
				}
				reqs = reqs[:0]
				for range 1 + sent%7 {
					req, ok := gen.Next()
					if !ok {
						t.Fatal("generator dried up")
					}
					reqs = append(reqs, req)
				}
				out = d.SubmitBatch(reqs, out[:0])
				for i, br := range out {
					if br.Err != nil {
						t.Fatalf("request %d: %v", sent+i, br.Err)
					}
					switch br.Grant.Outcome {
					case ctl.Rejected:
						rejected++
					case ctl.Granted:
						if rejected > 0 {
							t.Fatalf("request %d granted after %d rejects", sent+i, rejected)
						}
						granted++
					}
				}
				sent += len(reqs)
				if got := d.Granted(); got != granted {
					t.Fatalf("after %d requests Granted() = %d, %d grants answered", sent, got, granted)
				}
				if got := d.Counters().Get(stats.CounterRejects); got != rejected {
					t.Fatalf("after %d requests CounterRejects = %d, %d rejects answered", sent, got, rejected)
				}
			}
			if rejected <= restoreAt || (restoreAt > 0 && !restored) {
				t.Fatalf("%d rejects in %d requests: the run never got past the round trip at %d", rejected, requests, restoreAt)
			}
			if granted < m-w || granted > m {
				t.Fatalf("the wave's grant total %d is outside [M-W=%d, M=%d]", granted, m-w, m)
			}
		})
	}
}

func TestDynamicAmortizedCostPerChange(t *testing.T) {
	if testing.Short() {
		t.Skip("needs >1000 topological changes to amortize; skipped in -short")
	}
	// Theorem 3.5(1): moves = O(n₀log²n₀ + Σ_j log²n_j). With n bounded by
	// nMax during the run, moves per topological change should be
	// O(log²nMax); assert with a generous constant.
	tr, _ := tree.New()
	const n0 = 64
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n0}, 5); err != nil {
		t.Fatal(err)
	}
	const m = 6000
	d := ctl.NewDynamic(tr, m, 0)
	counters := d.Counters()
	gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 35, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 20}, 44)
	gen.SetMinSize(8)
	drainUntilReject(t, d, gen, m*4)
	changes := counters.Get(stats.CounterTopoChanges)
	if changes < 1000 {
		t.Fatalf("only %d changes; workload too small to amortize", changes)
	}
	moves := counters.Get(stats.CounterMoves)
	logN := math.Log2(float64(2 * m))
	perChange := float64(moves) / float64(changes)
	bound := 96 * logN * logN
	if perChange > bound {
		t.Fatalf("amortized moves/change = %.1f exceeds %.1f (≈96·log²n)", perChange, bound)
	}
}
