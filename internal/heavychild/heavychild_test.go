package heavychild_test

import (
	"testing"

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
	if err := d.CheckInvariant(2, 4); err != nil {
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
			if err := d.CheckInvariant(3, 6); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := d.CheckInvariant(3, 6); err != nil {
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
	if err := d.CheckInvariant(3, 6); err != nil {
		t.Fatalf("after growth: %v", err)
	}
	// IsLight sanity: the root is never light.
	light, err := d.IsLight(tr.Root())
	if err != nil || light {
		t.Fatalf("IsLight(root) = %v, %v; want false", light, err)
	}
}
