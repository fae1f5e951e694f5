package heavychild_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/heavychild"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestHeavyChildOnStaticTree(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 64}, 1); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(1))
	d, err := heavychild.New(tr, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Every internal node must have a heavy pointer to one of its
	// children.
	for _, v := range tr.Nodes() {
		kids, err := tr.Children(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) == 0 {
			continue
		}
		h, err := d.Heavy(v)
		if err != nil {
			t.Fatalf("no heavy pointer at internal node %d: %v", v, err)
		}
		found := false
		for _, k := range kids {
			if k == h {
				found = true
			}
		}
		if !found {
			t.Fatalf("heavy(%d) = %d is not a child", v, h)
		}
	}
	if err := checkInvariant(d, 2, 4); err != nil {
		t.Fatalf("invariant: %v", err)
	}
}

func TestHeavyChildLightAncestorsOnPath(t *testing.T) {
	// A pure path has no light edges at all (every internal node has one
	// child, which must be heavy).
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: 100}, 0); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(2))
	d, err := heavychild.New(tr, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Nodes() {
		la, err := d.LightAncestors(v)
		if err != nil {
			t.Fatal(err)
		}
		if la != 0 {
			t.Fatalf("node %d on a path has %d light ancestors, want 0", v, la)
		}
	}
}

// TestHeavyChildNewOnDeepPath: the subtree estimator numbers the tree once
// per iteration, so building the decomposition over a 2^15-node path costs
// O(n). It takes about 10 ms on a 2-vCPU box, and took 5.8 s when ω₀ came
// from one subtree walk per node (O(n·depth)); the bound leaves 100×
// headroom.
func TestHeavyChildNewOnDeepPath(t *testing.T) {
	const n = 1 << 15
	tr, root := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d, err := heavychild.New(tr, controller.Centralized)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("heavychild.New on a %d-node path took %v, want ≤ 1s", n, took)
	}
	kids, _ := tr.Children(root)
	if h, err := d.Heavy(root); err != nil || h != kids[0] {
		t.Fatalf("Heavy(root) = %d, %v; want its only child %d", h, err, kids[0])
	}
}

func TestHeavyChildUnderChurn(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 48}, 3); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(3))
	d, err := heavychild.New(tr, tp)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.DefaultMix(), 17)
	gen.SetMinSize(8)
	for i := 0; i < 800; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := d.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i%50 == 0 {
			if err := checkInvariant(d, 3, 6); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := checkInvariant(d, 3, 6); err != nil {
		t.Fatalf("final: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestHeavyChildGrowth(t *testing.T) {
	tr, _ := tree.New()
	tp := dist.Over(sim.NewDeterministic(4))
	d, err := heavychild.New(tr, tp)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 9)
	for i := 0; i < 600; i++ {
		req, _ := gen.Next()
		if _, err := d.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := checkInvariant(d, 3, 6); err != nil {
		t.Fatalf("after growth: %v", err)
	}
	// The root is never light, so it has no light ancestor.
	if la, err := d.LightAncestors(tr.Root()); err != nil || la != 0 {
		t.Fatalf("LightAncestors(root) = %v, %v; want 0", la, err)
	}
}

// checkInvariant verifies every node has at most maxFactor·log₄⁄₃(n)+slack
// light ancestors.
func checkInvariant(d *heavychild.Decomposition, maxFactor float64, slack int) error {
	tr := d.Tree()
	n := float64(tr.Size())
	bound := int(maxFactor*math.Log(n+1)/math.Log(4.0/3.0)) + slack
	for _, id := range tr.Nodes() {
		la, err := d.LightAncestors(id)
		if err != nil {
			return err
		}
		if la > bound {
			return fmt.Errorf("heavychild: node %d has %d light ancestors, bound %d (n=%.0f)",
				id, la, bound, n)
		}
	}
	return nil
}
