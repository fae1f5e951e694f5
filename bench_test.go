package dynctrl

// Benchmarks of the root package. BenchmarkExperiments times the
// experiments E1–E14 as internal/experiments defines them (the numbers
// they print are pinned by that package's testdata/tables.golden and
// printed by cmd/benchtables); the rest are micro-benchmarks of the public
// API hot paths. The daemon's performance is not measured here: that is
// bench/ (contract in BENCHMARK.json).

import (
	"testing"

	"dynctrl/internal/experiments"
	"dynctrl/internal/labeling"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// BenchmarkExperiments runs each experiment table once per iteration.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range []struct {
		name string
		run  func() *stats.Table
	}{
		{"E1", experiments.E1CentralizedMoves},
		{"E2", experiments.E2WasteSweep},
		{"E3", experiments.E3UnknownU},
		{"E4", experiments.E4MaxN},
		{"E5", experiments.E5DistVsCentral},
		{"E6", experiments.E6Liveness},
		{"E7", experiments.E7VsGrowOnly},
		{"E8", experiments.E8VsTrivial},
		{"E9", experiments.E9SizeEstimation},
		{"E10", experiments.E10Naming},
		{"E11", experiments.E11HeavyChild},
		{"E12", experiments.E12Labeling},
		{"E13", experiments.E13Memory},
		{"E14", experiments.E14Ablation},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tb := e.run(); len(tb.Rows) == 0 {
					b.Fatalf("%s: empty table", tb.Title)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the public API hot paths ---

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
