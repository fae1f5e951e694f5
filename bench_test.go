package dynctrl

// Micro-benchmarks of the public API hot paths. The experiments E1–E14
// are timed by internal/experiments' BenchmarkExperiments, and the
// daemon's performance is measured by bench/ (contract in BENCHMARK.json).

import (
	"testing"

	"dynctrl/internal/tree"
)

// overTransports runs bench as a /centralized sub-benchmark, over the
// engine dynctrld serves with, and a /simulated one, over the paper's
// message-passing engine seeded with seed.
func overTransports(b *testing.B, seed int64, bench func(b *testing.B, tp Transport)) {
	b.Run("centralized", func(b *testing.B) { bench(b, Centralized) })
	b.Run("simulated", func(b *testing.B) { bench(b, Simulated(seed)) })
}

// BenchmarkSubmitEvent measures one non-topological grant through the
// public controller on a warm 256-node tree.
func BenchmarkSubmitEvent(b *testing.B) {
	overTransports(b, 1, func(b *testing.B, tp Transport) {
		tr, _ := NewTree()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 256}, 1); err != nil {
			b.Fatal(err)
		}
		ctl := NewController(tr, tp, int64(b.N)+1024, int64(b.N)/2+512)
		nodes := tr.Nodes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Submit(Request{Node: nodes[i%len(nodes)], Kind: None}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubmitAddRemoveLeaf measures a grant+apply add/remove pair. Each
// pair restarts an unknown-U iteration, and a restart clears rows over every
// id ever handed out, so the time per pair grows with b.N: it is not a
// per-op cost, and it includes those O(ids ever) restarts.
func BenchmarkSubmitAddRemoveLeaf(b *testing.B) {
	overTransports(b, 2, func(b *testing.B, tp Transport) {
		tr, root := NewTree()
		ctl := NewController(tr, tp, int64(2*b.N)+1024, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := ctl.Submit(Request{Node: root, Kind: AddLeaf})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ctl.Submit(Request{Node: g.NewNode, Kind: RemoveLeaf}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEstimatorChange measures an add/remove pair through the
// size-estimation protocol. As in BenchmarkSubmitAddRemoveLeaf, the pairs
// restart iterations whose cost is O(ids ever), so the time per pair grows
// with b.N.
func BenchmarkEstimatorChange(b *testing.B) {
	overTransports(b, 3, func(b *testing.B, tp Transport) {
		tr, _ := NewTree()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 128}, 3); err != nil {
			b.Fatal(err)
		}
		est, err := NewEstimator(tr, tp, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := est.Submit(Request{Node: tr.Root(), Kind: AddLeaf})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := est.Submit(Request{Node: g.NewNode, Kind: RemoveLeaf}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreeOps measures the raw tree substrate.
func BenchmarkTreeOps(b *testing.B) {
	tr, root := tree.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := tr.ApplyAddLeaf(root)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.ApplyRemoveLeaf(id); err != nil {
			b.Fatal(err)
		}
	}
}
