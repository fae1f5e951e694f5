package baseline

import (
	"errors"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestTrivialGrantsAndRejects(t *testing.T) {
	tr, root := tree.New()
	const m = 5
	tv := NewTrivial(tr, m)
	for i := 0; i < m; i++ {
		g, err := tv.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf})
		if err != nil || g.Outcome != ctl.Granted {
			t.Fatalf("grant %d: %v %v", i, g.Outcome, err)
		}
	}
	g, err := tv.Submit(ctl.Request{Node: root, Kind: tree.None})
	if err != nil || g.Outcome != ctl.Rejected {
		t.Fatalf("after M grants: %v %v, want Rejected", g.Outcome, err)
	}
	if tv.granted != m {
		t.Fatalf("granted = %d, want %d", tv.granted, m)
	}
	if tr.Size() != m+1 {
		t.Fatalf("tree size = %d, want %d", tr.Size(), m+1)
	}
}

// TestTrivialInvalidChangeKeepsPermit: a request whose change the tree
// refuses (remove-leaf at an internal node) is an error, not a grant, so it
// must leave the permit budget and every counter as they were; with M = 1
// the next valid request still gets the one permit.
func TestTrivialInvalidChangeKeepsPermit(t *testing.T) {
	tr, root := tree.New()
	a, err := tr.ApplyAddLeaf(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ApplyAddLeaf(a); err != nil {
		t.Fatal(err)
	}
	tv := NewTrivial(tr, 1)
	if _, err := tv.Submit(ctl.Request{Node: a, Kind: tree.RemoveLeaf}); err == nil {
		t.Fatal("remove-leaf at an internal node was accepted")
	}
	if tv.granted != 0 {
		t.Fatalf("granted = %d after a refused change, want 0", tv.granted)
	}
	for name, v := range tv.Counters().Snapshot() {
		if v != 0 {
			t.Fatalf("counter %s = %d after a refused change, want 0", name, v)
		}
	}
	g, err := tv.Submit(ctl.Request{Node: a, Kind: tree.None})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("valid request after a refused change: %v %v, want Granted", g.Outcome, err)
	}
}

func TestTrivialCostIsDepthPerRequest(t *testing.T) {
	tr, root := tree.New()
	// Build a path of depth 50 via the controller itself.
	tv := NewTrivial(tr, 1000)
	cur := root
	for i := 0; i < 50; i++ {
		g, err := tv.Submit(ctl.Request{Node: cur, Kind: tree.AddLeaf})
		if err != nil || g.Outcome != ctl.Granted {
			t.Fatalf("grow: %v %v", g.Outcome, err)
		}
		cur = g.NewNode
	}
	before := tv.Counters().Get(stats.CounterMoves)
	if _, err := tv.Submit(ctl.Request{Node: cur, Kind: tree.None}); err != nil {
		t.Fatal(err)
	}
	cost := tv.Counters().Get(stats.CounterMoves) - before
	if cost != 50 {
		t.Fatalf("request at depth 50 cost %d moves, want 50", cost)
	}
}

func TestGrowOnlyRejectsUnsupportedChanges(t *testing.T) {
	tr, root := tree.New()
	g := newGrowOnly(tr, 64, 32, 8)
	res, err := g.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf})
	if err != nil || res.Outcome != ctl.Granted {
		t.Fatalf("add leaf: %v %v", res.Outcome, err)
	}
	if _, err := g.Submit(ctl.Request{Node: res.NewNode, Kind: tree.RemoveLeaf}); !errors.Is(err, errUnsupportedChange) {
		t.Fatalf("remove leaf err = %v, want errUnsupportedChange", err)
	}
}

func TestGrowOnlySafetyLiveness(t *testing.T) {
	for _, tc := range []struct{ m, w int64 }{{40, 10}, {100, 50}, {600, 300}} {
		tr, _ := tree.New()
		const requests = 400
		u := tc.m + 8
		g := newGrowOnly(tr, u, tc.m, tc.w)
		gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 9)
		granted := int64(0)
		for i := 0; i < requests; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			res, err := g.Submit(req)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if res.Outcome == ctl.Granted {
				granted++
			}
			if res.Outcome == ctl.Rejected {
				break
			}
		}
		if granted > tc.m {
			t.Fatalf("M=%d W=%d: granted %d > M", tc.m, tc.w, granted)
		}
		if granted < tc.m-tc.w {
			t.Fatalf("M=%d W=%d: granted %d < M−W", tc.m, tc.w, granted)
		}
	}
}

func TestGrowOnlyIterated(t *testing.T) {
	tr, _ := tree.New()
	const m = 512
	it := NewGrowOnlyIterated(tr, m+8, m, 1)
	gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 3)
	granted := 0
	for i := 0; i < 4*m; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		res, err := it.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if res.Outcome == ctl.Granted {
			granted++
		}
		if res.Outcome == ctl.Rejected {
			break
		}
	}
	if granted > m || granted < m-1 {
		t.Fatalf("granted %d outside [M−W, M] = [%d, %d]", granted, m-1, m)
	}
	if it.Counters().Get(stats.CounterIterations) < 2 {
		t.Fatal("expected multiple waste-halving iterations")
	}
}

func TestGrowOnlyBinLocality(t *testing.T) {
	// After the hierarchy warms up, repeated requests at the same node
	// must be cheaper than the first one (bin reuse).
	tr, root := tree.New()
	g := newGrowOnly(tr, 4096, 1<<20, 1<<19)
	counters := g.counters
	cur := root
	for i := 0; i < 64; i++ {
		res, err := g.Submit(ctl.Request{Node: cur, Kind: tree.AddLeaf})
		if err != nil || res.Outcome != ctl.Granted {
			t.Fatalf("grow: %v %v", res.Outcome, err)
		}
		cur = res.NewNode
	}
	before := counters.Get(stats.CounterMoves)
	for i := 0; i < 8; i++ {
		if _, err := g.Submit(ctl.Request{Node: cur, Kind: tree.None}); err != nil {
			t.Fatal(err)
		}
	}
	repeatCost := counters.Get(stats.CounterMoves) - before
	if repeatCost >= before {
		t.Fatalf("8 repeated requests cost %d moves vs %d for the build; expected bin locality",
			repeatCost, before)
	}
}
