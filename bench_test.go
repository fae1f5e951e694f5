package dynctrl

// Benchmark harness: one benchmark per experiment of EXPERIMENTS.md
// (E1–E14; see DESIGN.md for the experiment index), plus micro-benchmarks
// of the public API hot paths. The table-formatted versions of the same
// experiments are regenerated by cmd/benchtables.

import (
	"math"
	"testing"

	"dynctrl/internal/baseline"
	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/estimator"
	"dynctrl/internal/heavychild"
	"dynctrl/internal/labeling"
	"dynctrl/internal/naming"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func benchTree(b *testing.B, n int, seed int64) *tree.Tree {
	b.Helper()
	tr, _ := tree.New()
	if err := workload.BuildBalanced(tr, n, seed); err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchPath(b *testing.B, n int) *tree.Tree {
	b.Helper()
	tr, _ := tree.New()
	if err := workload.BuildPath(tr, n); err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchDrain(b *testing.B, sub workload.Submitter, gen workload.Generator, maxReq int) int {
	b.Helper()
	granted := 0
	for i := 0; i < maxReq; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := sub.Submit(req)
		if err != nil {
			break
		}
		if g.Outcome == controller.Granted {
			granted++
		}
		if g.Outcome == controller.Rejected {
			break
		}
	}
	return granted
}

// BenchmarkE1CentralizedMoves — Obs 3.4: centralized move complexity
// O(U·log²U·log M/(W+1)). Reports moves normalized by U·log²U.
func BenchmarkE1CentralizedMoves(b *testing.B) {
	const n = 512
	var lastNorm float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 1)
		u := int64(2*n + 16)
		counters := stats.NewCounters()
		it := controller.NewIterated(tr, u, int64(n), 1, controller.WithIteratedCounters(counters))
		gen := workload.NewChurn(tr, workload.DefaultMix(), 5)
		gen.SetMinSize(n / 2)
		benchDrain(b, it, gen, 8*n)
		logU := stats.Log2(float64(u))
		lastNorm = float64(counters.Get(stats.CounterMoves)) / (float64(u) * logU * logU)
	}
	b.ReportMetric(lastNorm, "moves/(U·log²U)")
}

// BenchmarkE2WasteSweep — Obs 3.4: dependence on log(M/(W+1)); reports the
// cost ratio between W=0 and W=M/2.
func BenchmarkE2WasteSweep(b *testing.B) {
	const n, m = 256, int64(2048)
	var ratio float64
	for i := 0; i < b.N; i++ {
		movesAt := func(w int64) int64 {
			tr := benchPath(b, n)
			counters := stats.NewCounters()
			it := controller.NewIterated(tr, int64(n+64), m, w, controller.WithIteratedCounters(counters))
			gen := workload.NewChurn(tr, workload.EventOnlyMix(), 7)
			benchDrain(b, it, gen, int(m)*4)
			return counters.Get(stats.CounterMoves)
		}
		ratio = float64(movesAt(0)) / float64(movesAt(m-1)+1)
	}
	b.ReportMetric(ratio, "moves(W=0)/moves(W=M-1)")
}

// BenchmarkE3UnknownU — Thm 3.5(1): amortized moves per change.
func BenchmarkE3UnknownU(b *testing.B) {
	const n = 256
	var perChange float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 3)
		m := int64(16 * n)
		counters := stats.NewCounters()
		d := controller.NewDynamic(tr, m, 0, controller.WithDynamicCounters(counters))
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, 9)
		gen.SetMinSize(n / 4)
		benchDrain(b, d, gen, int(m)*4)
		if ch := counters.Get(stats.CounterTopoChanges); ch > 0 {
			perChange = float64(counters.Get(stats.CounterMoves)) / float64(ch)
		}
	}
	b.ReportMetric(perChange, "moves/change")
}

// BenchmarkE4MaxN — Thm 3.5(2): moves normalized by N·log²N on grow-heavy
// traces under the double-max-N policy.
func BenchmarkE4MaxN(b *testing.B) {
	const n = 256
	var norm float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 4)
		m := int64(8 * n)
		counters := stats.NewCounters()
		d := controller.NewDynamic(tr, m, 0,
			controller.WithDynamicCounters(counters), controller.WithPolicy(controller.PolicyDoubleMaxN))
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 70, RemoveLeaf: 10, AddInternal: 10, Event: 10}, 11)
		gen.SetMinSize(n / 4)
		benchDrain(b, d, gen, int(m)*4)
		logN := stats.Log2(float64(tr.Size()))
		norm = float64(counters.Get(stats.CounterMoves)) / (float64(tr.Size()) * logN * logN)
	}
	b.ReportMetric(norm, "moves/(N·log²N)")
}

// BenchmarkE5DistVsCentral — Thm 4.7: distributed messages vs centralized
// moves on identical traces.
func BenchmarkE5DistVsCentral(b *testing.B) {
	const n = 256
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := int64(8 * n)
		u := int64(n) + 2*m
		trC := benchTree(b, n, 5)
		trD := benchTree(b, n, 5)
		cenCounters := stats.NewCounters()
		cen := controller.NewCore(trC, u, m, m/2, controller.WithCounters(cenCounters))
		rt := sim.NewDeterministic(5)
		sub := dist.Over(rt).NewCore(trD, u, m, m/2)
		genC := workload.NewChurn(trC, workload.DefaultMix(), 13)
		genD := workload.NewChurn(trD, workload.DefaultMix(), 13)
		for j := 0; j < 4*n; j++ {
			reqC, ok := genC.Next()
			if !ok {
				break
			}
			reqD, _ := genD.Next()
			if _, err := cen.Submit(reqC); err != nil {
				b.Fatal(err)
			}
			if _, err := sub.Submit(reqD); err != nil {
				b.Fatal(err)
			}
		}
		if mv := cenCounters.Get(stats.CounterMoves); mv > 0 {
			ratio = float64(rt.Messages()) / float64(mv)
		}
	}
	b.ReportMetric(ratio, "messages/moves")
}

// BenchmarkE6Liveness — safety/liveness: granted permits at first reject
// relative to M−W (must be ≥ 1.0 of M−W and ≤ M).
func BenchmarkE6Liveness(b *testing.B) {
	const m, w = int64(500), int64(100)
	var granted int
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, 40, 6)
		it := dist.Over(sim.NewDeterministic(6)).NewIterated(tr, 40+2*m, m, w)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 15)
		gen.SetMinSize(8)
		granted = benchDrain(b, it, gen, int(m)*5)
		if int64(granted) > m || int64(granted) < m-w {
			b.Fatalf("granted %d outside [%d, %d]", granted, m-w, m)
		}
	}
	b.ReportMetric(float64(granted), "granted")
}

// BenchmarkE7VsGrowOnly — ours vs the grow-only bin hierarchy of [4] on
// grow-only traces; reports the message ratio.
func BenchmarkE7VsGrowOnly(b *testing.B) {
	const m = int64(1024)
	var ratio float64
	for i := 0; i < b.N; i++ {
		trA := benchTree(b, 1, 7)
		trB := benchTree(b, 1, 7)
		tp := dist.Over(sim.NewDeterministic(7))
		ours := tp.NewIterated(trA, m+8, m, 1)
		countersB := stats.NewCounters()
		aaps := baseline.NewGrowOnlyIterated(trB, m+8, m, 1, countersB)
		genA := workload.NewChurn(trA, workload.GrowOnlyMix(), 17)
		genB := workload.NewChurn(trB, workload.GrowOnlyMix(), 17)
		benchDrain(b, ours, genA, int(m)*2)
		benchDrain(b, aaps, genB, int(m)*2)
		ratio = float64(tp.Cost(ours.Counters())) /
			float64(countersB.Get(stats.CounterMoves)+1)
	}
	b.ReportMetric(ratio, "ours/AAPS")
}

// BenchmarkE8VsTrivial — ours vs trivial controller with hot requests at
// the tip of a deep path; reports trivial/ours (>1 means we win).
func BenchmarkE8VsTrivial(b *testing.B) {
	const depth = 2048
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := int64(4 * depth)
		trA := benchPath(b, depth)
		trB := benchPath(b, depth)
		trivial := baseline.NewTrivial(trA, m, nil)
		tp := dist.Over(sim.NewDeterministic(8))
		ours := tp.NewIterated(trB, int64(depth)+16, m, 1)
		deepA := deepestNode(trA)
		deepB := deepestNode(trB)
		for j := 0; j < int(m)-1; j++ {
			if _, err := trivial.Submit(controller.Request{Node: deepA, Kind: tree.None}); err != nil {
				b.Fatal(err)
			}
			if _, err := ours.Submit(controller.Request{Node: deepB, Kind: tree.None}); err != nil {
				b.Fatal(err)
			}
		}
		ratio = float64(trivial.Counters().Get(stats.CounterMoves)) /
			float64(tp.Cost(ours.Counters())+1)
	}
	b.ReportMetric(ratio, "trivial/ours")
}

func deepestNode(tr *tree.Tree) tree.NodeID {
	best, bestD := tr.Root(), 0
	for _, id := range tr.Nodes() {
		if d, err := tr.Depth(id); err == nil && d > bestD {
			best, bestD = id, d
		}
	}
	return best
}

// BenchmarkE9SizeEstimation — Thm 5.1: amortized messages per change.
func BenchmarkE9SizeEstimation(b *testing.B) {
	const n = 256
	var perChange float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 9)
		tp := dist.Over(sim.NewDeterministic(9))
		est, err := estimator.New(tr, tp, 2)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, 21)
		gen.SetMinSize(n / 4)
		changes := benchDrain(b, est, gen, 6*n)
		if changes > 0 {
			perChange = float64(tp.Cost(est.Counters())) / float64(changes)
		}
	}
	b.ReportMetric(perChange, "msgs/change")
}

// BenchmarkE10Naming — Thm 5.2: amortized messages per change, invariant
// checked.
func BenchmarkE10Naming(b *testing.B) {
	const n = 256
	var perChange float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 10)
		tp := dist.Over(sim.NewDeterministic(10))
		nm := naming.New(tr, tp, nil)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 23)
		gen.SetMinSize(n / 4)
		changes := benchDrain(b, nm, gen, 4*n)
		if err := nm.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
		if changes > 0 {
			perChange = float64(tp.Cost(nm.Counters())) / float64(changes)
		}
	}
	b.ReportMetric(perChange, "msgs/change")
}

// BenchmarkE11HeavyChild — Thm 5.4: max light ancestors relative to
// log₄⁄₃ n.
func BenchmarkE11HeavyChild(b *testing.B) {
	const n = 256
	var ratio float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 11)
		hc, err := heavychild.New(tr, dist.Over(sim.NewDeterministic(11)), nil)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewChurn(tr, workload.DefaultMix(), 25)
		gen.SetMinSize(n / 4)
		benchDrain(b, hc, gen, 3*n)
		maxLight := 0
		for _, v := range tr.Nodes() {
			if la, err := hc.LightAncestors(v); err == nil && la > maxLight {
				maxLight = la
			}
		}
		ratio = float64(maxLight) / (math.Log(float64(tr.Size())) / math.Log(4.0/3.0))
	}
	b.ReportMetric(ratio, "lightAnc/log43(n)")
}

// BenchmarkE12Labeling — Cor 5.7: dynamic ancestry labels shrink with n.
func BenchmarkE12Labeling(b *testing.B) {
	const n = 512
	var bitsRatio float64
	for i := 0; i < b.N; i++ {
		tr := benchTree(b, n, 12)
		dyn, err := labeling.NewDynamic(tr, dist.Over(sim.NewDeterministic(12)),
			func(tr *tree.Tree) (labeling.Scheme, int64) {
				return labeling.BuildAncestry(tr), int64(tr.Size())
			}, nil)
		if err != nil {
			b.Fatal(err)
		}
		before := dyn.Scheme().MaxBits()
		gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 27)
		gen.SetMinSize(8)
		for j := 0; j < 10*n && tr.Size() > n/16; j++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := dyn.RequestChange(req); err != nil {
				b.Fatal(err)
			}
		}
		bitsRatio = float64(dyn.Scheme().MaxBits()) / float64(before)
	}
	b.ReportMetric(bitsRatio, "bitsAfter/bitsBefore")
}

// BenchmarkE13Memory — Claim 4.8: max whiteboard bits per node.
func BenchmarkE13Memory(b *testing.B) {
	const n = 256
	var maxBits float64
	for i := 0; i < b.N; i++ {
		tr := benchPath(b, n)
		m := int64(8 * n)
		u := int64(n) + 2*m
		core := dist.Over(sim.NewDeterministic(13)).NewCore(tr, u, m, m/2)
		gen := workload.NewChurn(tr, workload.EventOnlyMix(), 29)
		benchDrain(b, core, gen, 4*n)
		for _, id := range tr.Nodes() {
			if bits := core.MemoryBitsAt(id); float64(bits) > maxBits {
				maxBits = float64(bits)
			}
		}
	}
	b.ReportMetric(maxBits, "max-bits/node")
}

// BenchmarkE14Ablation — domain invariants: worst-case level-package
// occupancy relative to the U/(2^{k-1}ψ) bound.
func BenchmarkE14Ablation(b *testing.B) {
	const n = 400
	var worst float64
	for i := 0; i < b.N; i++ {
		tr := benchPath(b, n)
		u := int64(n + 200)
		c := controller.NewCore(tr, u, 1<<30, u)
		c.EnableDomainTracking()
		gen := workload.NewChurn(tr, workload.DefaultMix(), 31)
		gen.SetMinSize(n / 2)
		for j := 0; j < 200; j++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := c.Submit(req); err != nil {
				b.Fatal(err)
			}
			for level, count := range c.Domains().LevelCounts() {
				occ := float64(count) / (float64(u) / float64(c.Params().DomainSize(level)))
				if occ > worst {
					worst = occ
				}
			}
		}
		if worst > 1 {
			b.Fatalf("occupancy %f exceeds the domain bound", worst)
		}
	}
	b.ReportMetric(worst, "worst-occupancy")
}

// --- Micro-benchmarks of the public API hot paths ---

// BenchmarkSubmitEvent measures one non-topological grant through the
// public controller on a warm 256-node tree.
func BenchmarkSubmitEvent(b *testing.B) {
	tr, _ := NewTree()
	if err := workload.BuildBalanced(tr, 256, 1); err != nil {
		b.Fatal(err)
	}
	rt := NewRuntime(1)
	ctl := NewController(tr, rt, int64(b.N)+1024, int64(b.N)/2+512)
	nodes := tr.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Submit(Request{Node: nodes[i%len(nodes)], Kind: None}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitAddRemoveLeaf measures a grant+apply add/remove pair.
func BenchmarkSubmitAddRemoveLeaf(b *testing.B) {
	tr, root := NewTree()
	rt := NewRuntime(2)
	ctl := NewController(tr, rt, int64(2*b.N)+1024, 64)
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
}

// BenchmarkEstimatorChange measures one topological change through the
// size-estimation protocol.
func BenchmarkEstimatorChange(b *testing.B) {
	tr, root := NewTree()
	if err := workload.BuildBalanced(tr, 128, 3); err != nil {
		b.Fatal(err)
	}
	est, err := NewEstimator(tr, NewRuntime(3), 2)
	if err != nil {
		b.Fatal(err)
	}
	_ = root
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := est.RequestChange(Request{Node: tr.Root(), Kind: AddLeaf})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.RequestChange(Request{Node: g.NewNode, Kind: RemoveLeaf}); err != nil {
			b.Fatal(err)
		}
	}
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
	if err := workload.BuildBalanced(tr, 1024, 4); err != nil {
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
