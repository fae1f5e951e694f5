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
	if n, bound := tr.Size(), 4*(int(math.Log2(float64(tr.Size()+1)))+2); bitsAfter > bound {
		t.Fatalf("max label %d bits exceeds %d (n=%d)", bitsAfter, bound, n)
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

// BenchmarkAncestryQuery measures a label-based ancestry query.
func BenchmarkAncestryQuery(b *testing.B) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 1024}, 4); err != nil {
		b.Fatal(err)
	}
	scheme := labeling.BuildAncestry(tr)
	nodes := tr.Nodes()
	labels := make([]labeling.AncestryLabel, len(nodes))
	for i, v := range nodes {
		l, err := scheme.Label(v)
		if err != nil {
			b.Fatal(err)
		}
		labels[i] = l
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = labeling.IsAncestor(labels[i%len(labels)], labels[(i*7+3)%len(labels)])
	}
}
