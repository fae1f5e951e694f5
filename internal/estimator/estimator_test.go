package estimator_test

import (
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/estimator"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestEstimatorRejectsBadBeta(t *testing.T) {
	tr, _ := tree.New()
	tp := dist.Over(sim.NewDeterministic(1))
	if _, err := estimator.New(tr, tp, 1.0); err == nil {
		t.Fatal("beta = 1 must be rejected")
	}
	if _, err := estimator.New(tr, tp, 0.5); err == nil {
		t.Fatal("beta < 1 must be rejected")
	}
}

func TestEstimatorApproximationUnderChurn(t *testing.T) {
	for _, beta := range []float64{2, 4} {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 32}, 3); err != nil {
			t.Fatal(err)
		}
		tp := dist.Over(sim.NewDeterministic(3))
		est, err := estimator.New(tr, tp, beta)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewChurn(tr, workload.DefaultMix(), 17)
		gen.SetMinSize(4)
		for i := 0; i < 1500; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := est.Submit(req); err != nil {
				t.Fatalf("beta=%v step %d: %v", beta, i, err)
			}
			if err := est.CheckApproximation(); err != nil {
				t.Fatalf("beta=%v step %d: %v", beta, i, err)
			}
		}
		if est.Iteration() < 3 {
			t.Fatalf("beta=%v: only %d iterations; churn should roll the protocol over", beta, est.Iteration())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
}

func TestEstimatorShrinkingTree(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 200}, 5); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(5))
	est, err := estimator.New(tr, tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 31)
	gen.SetMinSize(8)
	for i := 0; i < 1200 && tr.Size() > 10; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := est.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := est.CheckApproximation(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if tr.Size() > 100 {
		t.Fatalf("tree should have shrunk, size = %d", tr.Size())
	}
}

func TestEstimatorAmortizedMessageCost(t *testing.T) {
	// Theorem 5.1: O(n₀log²n₀ + Σ log²n_j) messages. With n ≤ nMax the
	// amortized cost per change is O(log²nMax).
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 64}, 7); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(7))
	est, err := estimator.New(tr, tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, 23)
	gen.SetMinSize(16)
	const changes = 3000
	applied := 0
	for applied < changes {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := est.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if g.Outcome == ctl.Granted {
			applied++
		}
	}
	total := float64(tp.Cost(est.Counters()))
	logN := stats.Log2(float64(tr.EverExisted()))
	perChange := total / float64(applied)
	if bound := 160 * logN * logN; perChange > bound {
		t.Fatalf("amortized messages/change = %.1f exceeds %.1f", perChange, bound)
	}
}

func TestEstimateQueryErrors(t *testing.T) {
	tr, root := tree.New()
	tp := dist.Over(sim.NewDeterministic(9))
	est, err := estimator.New(tr, tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(999); err == nil {
		t.Fatal("estimate at missing node must fail")
	}
	got, err := est.Estimate(root)
	if err != nil || got != 1 {
		t.Fatalf("Estimate(root) = %d, %v; want 1", got, err)
	}
	if _, err := est.SubtreeEstimate(root); err == nil {
		t.Fatal("subtree estimates must be explicitly enabled")
	}
}

func TestSubtreeEstimatorSandwich(t *testing.T) {
	// Lemma 5.3 rests on ω̃(v) = ω₀(v) + S(v), where S(v) counts the
	// permits passing down through v. Two bounds hold by construction and
	// are asserted exactly:
	//
	//	SW(v) ≤ ω̃(v)                     (every permit granted below v
	//	                                   descended through v once)
	//	ω̃(v) ≤ ω₀(v) + grantsBelow(v) + m (extra permits are stuck in
	//	                                   packages, at most the budget m)
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 48}, 11); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(11))
	est, err := estimator.New(tr, tp, 2, estimator.WithSubtreeEstimates())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 60, RemoveLeaf: 20, Event: 20}, 13)
	gen.SetMinSize(8)

	iter := est.Iteration()
	super := currentSubtreeSizes(tr) // SW resets to subtree sizes at boundaries
	grantsBelow := make(map[tree.NodeID]int64)
	iterBudget := int64(tr.Size()) // ≥ the iteration's αN_i budget

	for i := 0; i < 600; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := est.Submit(req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if est.Iteration() != iter {
			iter = est.Iteration()
			super = currentSubtreeSizes(tr)
			grantsBelow = make(map[tree.NodeID]int64)
			iterBudget = int64(tr.Size())
			continue
		}
		if g.Outcome != ctl.Granted {
			continue
		}
		// Every grant consumed a permit at (or below) the request node.
		reqAt := req.Node
		if g.NewNode != tree.InvalidNode {
			reqAt = g.NewNode
		}
		if tr.Contains(reqAt) {
			path, err := tr.PathToRoot(reqAt)
			if err == nil {
				for _, a := range path {
					grantsBelow[a]++
					if req.Kind.IsAddition() {
						super[a]++
					}
				}
			}
		}
		for _, v := range tr.Nodes() {
			sw, known := super[v]
			if !known {
				continue
			}
			got, err := est.SubtreeEstimate(v)
			if err != nil {
				t.Fatal(err)
			}
			if got < sw {
				t.Fatalf("step %d node %d: estimate %d < exact super-weight %d", i, v, got, sw)
			}
			// ω₀(v) ≥ sw − grantsBelow (sw only grew by additions, each
			// of which is a grant), so the upper bound folds into:
			if got > sw+2*grantsBelow[v]+iterBudget {
				t.Fatalf("step %d node %d: estimate %d exceeds SW+2·grants+budget = %d+%d+%d",
					i, v, got, sw, 2*grantsBelow[v], iterBudget)
			}
		}
	}
}

// TestOmega0IsSubtreeSize: the subtree estimator's ω₀(v) is the live
// subtree size of v at the start of the iteration, right after New and right
// after the rollover that a run of leaf insertions forces. The iteration
// starts before the request that triggered it is applied, so the node that
// request added is left out of the count.
func TestOmega0IsSubtreeSize(t *testing.T) {
	for _, kind := range []string{"path", "balanced"} {
		t.Run(kind, func(t *testing.T) {
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: kind, Nodes: 256}, 5); err != nil {
				t.Fatal(err)
			}
			est, err := estimator.New(tr, ctl.Centralized, 2, estimator.WithSubtreeEstimates())
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string, added tree.NodeID) {
				t.Helper()
				for _, v := range tr.Nodes() {
					var want int64
					for u := range tr.Subtree(v) {
						if u != added {
							want++
						}
					}
					got, ok := est.Omega0(v)
					if v == added {
						if ok {
							t.Fatalf("%s: node %d joined mid-iteration but has ω₀ = %d", when, v, got)
						}
						continue
					}
					if !ok || got != want {
						t.Fatalf("%s: ω₀(%d) = %d (%v), want subtree size %d", when, v, got, ok, want)
					}
				}
			}
			check("after New", tree.InvalidNode)
			nodes := tr.Nodes()
			for i := 0; est.Iteration() == 1; i++ {
				g, err := est.Submit(ctl.Request{Node: nodes[i*37%len(nodes)], Kind: tree.AddLeaf})
				if err != nil || g.Outcome != ctl.Granted {
					t.Fatalf("request %d: %v %v", i, g.Outcome, err)
				}
				if est.Iteration() != 1 {
					check("after rollover", g.NewNode)
				}
			}
		})
	}
}

// currentSubtreeSizes computes the subtree size of every live node (the
// super-weight at an iteration boundary) by counting Subtree(v), not from
// the preorder intervals the estimator reads.
func currentSubtreeSizes(tr *tree.Tree) map[tree.NodeID]int64 {
	out := make(map[tree.NodeID]int64, tr.Size())
	for _, v := range tr.Nodes() {
		for range tr.Subtree(v) {
			out[v]++
		}
	}
	return out
}
