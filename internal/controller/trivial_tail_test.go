package controller_test

import (
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// TestTrivialTailInvalidRequestBurnsNoPermit pins the order of the W = 0
// trivial tail: the change is applied before a permit is consumed, so a
// request the tree refuses (the tail runs without the core's validation)
// leaves the budget alone and the driver still grants exactly M.
func TestTrivialTailInvalidRequestBurnsNoPermit(t *testing.T) {
	const m, u, n = 4096, 256, 64
	tr, at := tree.New()
	var path []tree.NodeID // top-down, the root left out
	for i := 0; i < n; i++ {
		id, err := tr.ApplyAddLeaf(at)
		if err != nil {
			t.Fatal(err)
		}
		path = append(path, id)
		at = id
	}
	internal, tip := path[n-2], path[n-1]
	it := ctl.NewIterated(tr, u, m, 0)
	counters := it.Counters()
	event := func(at tree.NodeID) ctl.Grant {
		t.Helper()
		g, err := it.Submit(ctl.Request{Node: at, Kind: tree.None})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Events spread over the upper path leave static packages behind, so
	// the first iteration exhausts with L > 0 and the tail has permits to
	// walk.
	for i := 0; i < 40; i++ {
		event(path[i%(n/2)])
	}
	refusedInTail := 0
	for i := 0; i < 2*m; i++ {
		before, grantsBefore := it.Granted(), counters.Get(stats.CounterGrants)
		g, err := it.Submit(ctl.Request{Node: internal, Kind: tree.RemoveLeaf})
		if err == nil {
			if g.Outcome != ctl.Rejected {
				t.Fatalf("step %d: remove-leaf at internal node %d answered %v", i, internal, g.Outcome)
			}
			break
		}
		if it.Granted() != before || counters.Get(stats.CounterGrants) != grantsBefore {
			t.Fatalf("step %d: refused request (%v) burned a permit: granted %d -> %d, grants counter %d -> %d",
				i, err, before, it.Granted(), grantsBefore, counters.Get(stats.CounterGrants))
		}
		if it.State().TrivialPhase {
			refusedInTail++
		}
		if event(tip).Outcome == ctl.Rejected {
			break
		}
	}
	if refusedInTail == 0 {
		t.Fatal("the trivial tail never refused a request; the scenario is vacuous")
	}
	if it.Granted() != m {
		t.Fatalf("W = 0 must grant exactly M = %d before the first reject, granted %d", m, it.Granted())
	}
}
