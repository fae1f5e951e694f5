package labeling_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/labeling"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func randomTree(t *testing.T, n int, seed int64) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, seed); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAncestryLabelsExact(t *testing.T) {
	prop := func(seed int64) bool {
		tr := randomTree(t, 60, seed)
		a := labeling.BuildAncestry(tr)
		nodes := tr.Nodes()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 80; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			lu, err := a.Label(u)
			if err != nil {
				return false
			}
			lv, err := a.Label(v)
			if err != nil {
				return false
			}
			want, err := tr.IsAncestor(u, v)
			if err != nil {
				return false
			}
			if labeling.IsAncestor(lu, lv) != want {
				t.Logf("seed %d: ancestry(%d,%d) mismatch", seed, u, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestrySurvivesDeletions(t *testing.T) {
	tr := randomTree(t, 80, 5)
	a := labeling.BuildAncestry(tr)
	// Delete some leaves and internal nodes directly.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		nodes := tr.Nodes()
		id := nodes[rng.Intn(len(nodes))]
		if id == tr.Root() {
			continue
		}
		if tr.IsLeaf(id) {
			_ = tr.ApplyRemoveLeaf(id)
		} else {
			_ = tr.ApplyRemoveInternal(id)
		}
		a.Drop(id)
	}
	// Remaining pairs still answer correctly.
	nodes := tr.Nodes()
	for _, u := range nodes {
		for _, v := range nodes {
			lu, err1 := a.Label(u)
			lv, err2 := a.Label(v)
			if err1 != nil || err2 != nil {
				t.Fatalf("missing label after deletion: %v %v", err1, err2)
			}
			want, err := tr.IsAncestor(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if labeling.IsAncestor(lu, lv) != want {
				t.Fatalf("ancestry(%d,%d) mismatch after deletions", u, v)
			}
		}
	}
}

func TestNCALabelsExact(t *testing.T) {
	prop := func(seed int64) bool {
		tr := randomTree(t, 50, seed)
		scheme := labeling.BuildNCA(tr)
		pre := make(map[tree.NodeID]int)
		for id, p := range tr.Intervals() {
			pre[id] = p[0]
		}
		nodes := tr.Nodes()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			lu, err := scheme.Label(u)
			if err != nil {
				return false
			}
			lv, err := scheme.Label(v)
			if err != nil {
				return false
			}
			gotPre, err := labeling.QueryNCA(lu, lv)
			if err != nil {
				t.Logf("seed %d: QueryNCA(%d,%d): %v", seed, u, v, err)
				return false
			}
			want, err := tr.NCA(u, v)
			if err != nil {
				return false
			}
			if gotPre != pre[want] {
				t.Logf("seed %d: NCA(%d,%d) = pre %d, want node %d (pre %d)",
					seed, u, v, gotPre, want, pre[want])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNCALabelSizeLogSquared(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		tr := randomTree(t, n, 7)
		scheme := labeling.BuildNCA(tr)
		logN := math.Log2(float64(n))
		bound := int(8 * logN * logN)
		if got := scheme.MaxBits(); got > bound {
			t.Fatalf("n=%d: max NCA label %d bits exceeds 8·log²n = %d", n, got, bound)
		}
	}
}

func TestDistanceLabelsExact(t *testing.T) {
	prop := func(seed int64) bool {
		tr := randomTree(t, 40, seed)
		scheme := labeling.BuildDistance(tr)
		nodes := tr.Nodes()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			lu, err := scheme.Label(u)
			if err != nil {
				return false
			}
			lv, err := scheme.Label(v)
			if err != nil {
				return false
			}
			got, err := labeling.QueryDistance(lu, lv)
			if err != nil {
				return false
			}
			want, err := tr.TreeDistance(u, v)
			if err != nil {
				return false
			}
			if got != want {
				t.Logf("seed %d: dist(%d,%d) = %d, want %d", seed, u, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceDecompositionDepth(t *testing.T) {
	for _, n := range []int{128, 512} {
		// Worst case for naive decompositions: a path.
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
			t.Fatal(err)
		}
		scheme := labeling.BuildDistance(tr)
		bound := int(2*math.Log2(float64(n))) + 4
		if got := scheme.MaxEntries(); got > bound {
			t.Fatalf("n=%d: decomposition depth %d exceeds %d", n, got, bound)
		}
	}
}

func TestDynamicLabelingShrinks(t *testing.T) {
	// Corollary 5.7's point: without rebuilds, labels stay sized for the
	// historical maximum; the dynamic wrapper must shrink them.
	tr := randomTree(t, 512, 9)
	tp := dist.Over(sim.NewDeterministic(9))
	dyn, err := labeling.NewDynamic(tr, tp,
		func(tr *tree.Tree) (labeling.Scheme, int64) {
			return labeling.BuildAncestry(tr), int64(tr.Size())
		})
	if err != nil {
		t.Fatal(err)
	}
	bitsBefore := dyn.Scheme().MaxBits()

	gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 21)
	gen.SetMinSize(8)
	for i := 0; i < 4000 && tr.Size() > 16; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := dyn.Submit(req); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if tr.Size() > 64 {
		t.Fatalf("tree did not shrink enough: %d", tr.Size())
	}
	if dyn.Rebuilds() < 2 {
		t.Fatalf("rebuilds = %d; the shrink should have triggered rebuilds", dyn.Rebuilds())
	}
	bitsAfter := dyn.Scheme().MaxBits()
	if bitsAfter >= bitsBefore {
		t.Fatalf("labels did not shrink: %d -> %d bits", bitsBefore, bitsAfter)
	}
	// Label size tracks the current n: 2·⌈log₂(n+1)⌉ bits with slack.
	if err := dyn.CheckLabelSize(func(n int) int {
		return 2 * (int(math.Log2(float64(n+1))) + 2)
	}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicLabelingGrowth(t *testing.T) {
	tr := randomTree(t, 16, 10)
	tp := dist.Over(sim.NewDeterministic(10))
	dyn, err := labeling.NewDynamic(tr, tp,
		func(tr *tree.Tree) (labeling.Scheme, int64) {
			return labeling.BuildAncestry(tr), int64(tr.Size())
		})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 11)
	for i := 0; i < 600; i++ {
		req, _ := gen.Next()
		g, err := dyn.Submit(req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if g.Outcome != ctl.Granted {
			t.Fatalf("grow request not granted at step %d", i)
		}
	}
	if dyn.Rebuilds() < 3 {
		t.Fatalf("rebuilds = %d; growth by 38x should trigger several", dyn.Rebuilds())
	}
}
