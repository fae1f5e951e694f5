package naming_test

import (
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/naming"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestNamingInitialIdentities(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 20}, 1); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(1))
	nm := naming.New(tr, tp)
	if err := nm.CheckInvariants(); err != nil {
		t.Fatalf("fresh naming: %v", err)
	}
	// Initial ids are exactly [1, n].
	seen := make(map[int64]bool)
	for _, v := range tr.Nodes() {
		id, err := nm.ID(v)
		if err != nil {
			t.Fatal(err)
		}
		if id < 1 || id > 20 {
			t.Fatalf("initial id %d outside [1, 20]", id)
		}
		if seen[id] {
			t.Fatalf("duplicate initial id %d", id)
		}
		seen[id] = true
	}
}

func TestNamingUnderChurn(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 32}, 2); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(2))
	nm := naming.New(tr, tp)
	gen := workload.NewChurn(tr, workload.DefaultMix(), 29)
	gen.SetMinSize(6)
	for i := 0; i < 1500; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := nm.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := nm.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%v at %d): %v", i, req.Kind, req.Node, err)
		}
	}
	if nm.Iteration() < 3 {
		t.Fatalf("iterations = %d; churn should roll the protocol over", nm.Iteration())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestNamingGrowthKeepsIDsShort(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 8}, 3); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(3))
	nm := naming.New(tr, tp)
	gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 5)
	for i := 0; i < 500; i++ {
		req, _ := gen.Next()
		g, err := nm.Submit(req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if g.Outcome != ctl.Granted {
			t.Fatalf("grow-only request not granted at step %d", i)
		}
		if err := nm.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if tr.Size() != 8+500 {
		t.Fatalf("size = %d, want 508", tr.Size())
	}
}

func TestNamingShrinkKeepsIDsShort(t *testing.T) {
	// The motivation of Section 5.4: after heavy deletions the ids must
	// track the *current* n, not the historical maximum.
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 256}, 4); err != nil {
		t.Fatal(err)
	}
	tp := dist.Over(sim.NewDeterministic(4))
	nm := naming.New(tr, tp)
	gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 7)
	gen.SetMinSize(10)
	for i := 0; i < 2000 && tr.Size() > 16; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := nm.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := nm.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if tr.Size() > 128 {
		t.Fatalf("tree did not shrink (size %d)", tr.Size())
	}
}

func TestNamingIDMissingNode(t *testing.T) {
	tr, _ := tree.New()
	tp := dist.Over(sim.NewDeterministic(5))
	nm := naming.New(tr, tp)
	if _, err := nm.ID(424242); err == nil {
		t.Fatal("ID of missing node should fail")
	}
}
