// Package experiments regenerates the experiments E1–E14. The paper is a
// theory contribution whose "tables and figures" are complexity theorems;
// each function here measures the corresponding quantity on synthetic
// workloads and prints the series/rows whose *shape* the paper predicts.
// cmd/benchtables prints all tables; BenchmarkExperiments/E<n> times each;
// testdata/tables.golden pins every number.
package experiments

import (
	"fmt"
	"math"

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

func buildTree(n int, seed int64) *tree.Tree {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, seed); err != nil {
		panic(err) // deterministic construction cannot fail
	}
	return tr
}

func drain(sub controller.Submitter, gen workload.Generator, maxReq int) (granted, rejected int) {
	for i := 0; i < maxReq; i++ {
		req, ok := gen.Next()
		if !ok {
			return granted, rejected
		}
		g, err := sub.Submit(req)
		if err != nil {
			return granted, rejected
		}
		switch g.Outcome {
		case controller.Granted:
			granted++
		case controller.Rejected:
			rejected++
			return granted, rejected
		}
	}
	return granted, rejected
}

// e1CentralizedMoves measures the centralized waste-halving controller's
// move complexity as U grows (Obs 3.4: O(U·log²U·log M/(W+1))). The last
// column should flatten; the growth exponent of raw moves vs U should be
// near 1 (up to log factors).
func e1CentralizedMoves() *stats.Table {
	tb := stats.NewTable("E1: centralized move complexity vs U (M=U, W=1)",
		"n0", "U", "moves", "moves/(U·log²U)")
	var series stats.Series
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		tr := buildTree(n, 1)
		m := int64(n)
		u := int64(2*n + 16)
		it := controller.Centralized.NewIterated(tr, u, m, 1)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 5)
		gen.SetMinSize(n / 2)
		drain(it, gen, 8*n)
		moves := it.Counters().Get(stats.CounterMoves)
		logU := stats.Log2(float64(u))
		tb.AddRow(n, u, moves, float64(moves)/(float64(u)*logU*logU))
		series.Append(float64(u), float64(moves))
	}
	tb.AddRow("growth-exponent(moves vs U)", "", "", series.GrowthExponent())
	return tb
}

// e2WasteSweep fixes U and sweeps W: moves should scale with log(M/(W+1))
// (Obs 3.4).
func e2WasteSweep() *stats.Table {
	tb := stats.NewTable("E2: moves vs waste W (path n=512, M=4096)",
		"W", "log2(M/(W+1))", "moves", "moves/log2(M/(W+1))")
	const n = 512
	const m = int64(4096)
	for _, w := range []int64{m - 1, m / 2, m / 16, m / 256, 0} {
		// A deep path makes distances (and therefore stranded waste and
		// iteration count) matter; balanced trees are too shallow to
		// separate the W regimes.
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
			panic(err)
		}
		u := int64(n + 64)
		it := controller.Centralized.NewIterated(tr, u, m, w)
		gen := workload.NewChurn(tr, workload.EventOnlyMix(), 7)
		drain(it, gen, int(m)*4)
		moves := it.Counters().Get(stats.CounterMoves)
		ratio := stats.Log2(float64(m)/float64(w+1)) + 1
		tb.AddRow(w, ratio-1, moves, float64(moves)/ratio)
	}
	return tb
}

// e3UnknownU measures the unknown-U controller (Thm 3.5(1)): amortized
// moves per topological change should stay O(log²n).
func e3UnknownU() *stats.Table {
	tb := stats.NewTable("E3: unknown-U amortized moves per change (policy: changes/4)",
		"n0", "changes", "moves", "moves/change", "log²(nMax)")
	for _, n := range []int{64, 256, 1024} {
		tr := buildTree(n, 3)
		m := int64(16 * n)
		d := controller.NewDynamic(tr, m, 0)
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, 9)
		gen.SetMinSize(n / 4)
		drain(d, gen, int(m)*4)
		changes := d.Counters().Get(stats.CounterTopoChanges)
		moves := d.Counters().Get(stats.CounterMoves)
		logN := stats.Log2(float64(2 * m))
		perChange := 0.0
		if changes > 0 {
			perChange = float64(moves) / float64(changes)
		}
		tb.AddRow(n, changes, moves, perChange, logN*logN)
	}
	return tb
}

// e4MaxN runs the second unknown-U policy (Thm 3.5(2)): total moves
// normalized by N·log²N, N = max simultaneous nodes, on grow-heavy traces.
func e4MaxN() *stats.Table {
	tb := stats.NewTable("E4: unknown-U (policy: double max-N) on grow-heavy traces",
		"n0", "maxN", "moves", "moves/(N·log²N)")
	for _, n := range []int{64, 256, 1024} {
		tr := buildTree(n, 4)
		m := int64(8 * n)
		d := controller.NewDynamic(tr, m, 0, controller.WithPolicy(controller.PolicyDoubleMaxN))
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 70, RemoveLeaf: 10, AddInternal: 10, Event: 10}, 11)
		gen.SetMinSize(n / 4)
		drain(d, gen, int(m)*4)
		maxN := tr.Size() // grow-heavy: final ≈ max
		moves := d.Counters().Get(stats.CounterMoves)
		logN := stats.Log2(float64(maxN))
		tb.AddRow(n, maxN, moves, float64(moves)/(float64(maxN)*logN*logN))
	}
	return tb
}

// e5DistVsCentral replays identical traces on the centralized and
// distributed controllers (Thm 4.7 / Lemma 4.5): the message count should
// stay within a small constant of the move count.
func e5DistVsCentral() *stats.Table {
	tb := stats.NewTable("E5: distributed messages vs centralized moves (same trace)",
		"n", "moves(central)", "messages(dist)", "ratio")
	for _, n := range []int{64, 256, 1024} {
		m := int64(8 * n)
		u := int64(n) + 2*m
		w := m / 2
		trC := buildTree(n, 5)
		trD := buildTree(n, 5)
		cen := controller.NewCore(trC, u, m, w)
		rt := sim.NewDeterministic(5)
		sub := dist.Over(rt).NewCore(trD, u, m, w)
		genC := workload.NewChurn(trC, workload.DefaultMix(), 13)
		genD := workload.NewChurn(trD, workload.DefaultMix(), 13)
		for i := 0; i < 4*n; i++ {
			reqC, ok := genC.Next()
			if !ok {
				break
			}
			reqD, _ := genD.Next()
			if _, err := cen.Submit(reqC); err != nil {
				break
			}
			if _, err := sub.Submit(reqD); err != nil {
				break
			}
		}
		moves := cen.Counters().Get(stats.CounterMoves)
		msgs := rt.Messages()
		ratio := math.Inf(1)
		if moves > 0 {
			ratio = float64(msgs) / float64(moves)
		}
		tb.AddRow(n, moves, msgs, ratio)
	}
	return tb
}

// e6Liveness records, per (M,W), the permits granted at first reject:
// safety requires ≤ M, liveness requires ≥ M−W.
func e6Liveness() *stats.Table {
	tb := stats.NewTable("E6: safety/liveness at first reject",
		"M", "W", "granted", "M-W", "ok")
	for _, tc := range []struct{ m, w int64 }{
		{100, 0}, {100, 10}, {500, 100}, {1000, 500}, {2000, 1},
	} {
		tr := buildTree(40, 6)
		it := dist.Over(sim.NewDeterministic(6)).NewIterated(tr, int64(40)+2*tc.m, tc.m, tc.w)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 15)
		gen.SetMinSize(8)
		granted, _ := drain(it, gen, int(tc.m)*5)
		ok := int64(granted) <= tc.m && int64(granted) >= tc.m-tc.w
		tb.AddRow(tc.m, tc.w, granted, tc.m-tc.w, ok)
	}
	return tb
}

// e7VsGrowOnly compares our controller with the bin-hierarchy controller of
// [4] on grow-only traces (the only regime [4] supports). The paper claims
// our message complexity is never asymptotically worse.
func e7VsGrowOnly() *stats.Table {
	tb := stats.NewTable("E7: ours vs grow-only bin hierarchy [4] (grow-only traces)",
		"M", "ours(messages)", "AAPS(moves)", "ratio ours/AAPS")
	for _, m := range []int64{256, 1024, 4096} {
		u := m + 8
		trA := buildTree(1, 7)
		trB := buildTree(1, 7)
		tp := dist.Over(sim.NewDeterministic(7))
		ours := tp.NewIterated(trA, u, m, 1)
		aaps := baseline.NewGrowOnlyIterated(trB, u, m, 1)
		genA := workload.NewChurn(trA, workload.GrowOnlyMix(), 17)
		genB := workload.NewChurn(trB, workload.GrowOnlyMix(), 17)
		drain(ours, genA, int(m)*2)
		drain(aaps, genB, int(m)*2)
		oursTotal := tp.Cost(ours.Counters())
		aapsTotal := aaps.Counters().Get(stats.CounterMoves)
		tb.AddRow(m, oursTotal, aapsTotal, float64(oursTotal)/float64(aapsTotal+1))
	}
	return tb
}

// e8VsTrivial compares against the trivial controller: per-request cost of
// the trivial controller grows with depth (Ω(n) per request), ours
// amortizes to polylog.
func e8VsTrivial() *stats.Table {
	tb := stats.NewTable("E8: ours vs trivial controller (deep trees, repeated requests)",
		"depth", "requests", "trivial(moves)", "ours(messages)", "trivial/ours")
	for _, depth := range []int{128, 512, 2048} {
		m := int64(4 * depth)
		trA, _ := tree.New()
		trB, _ := tree.New()
		if err := tree.Build(trA, tree.Shape{Kind: "path", Nodes: depth}, 0); err != nil {
			panic(err)
		}
		if err := tree.Build(trB, tree.Shape{Kind: "path", Nodes: depth}, 0); err != nil {
			panic(err)
		}
		trivial := baseline.NewTrivial(trA, m)
		tp := dist.Over(sim.NewDeterministic(8))
		// U bounds nodes ever to exist: the workload is purely
		// non-topological, so U is just the path length (inflating U
		// shrinks φ and would cripple package batching).
		ours := tp.NewIterated(trB, int64(depth)+16, m, 1)
		// All requests arrive at the deepest node: the trivial controller
		// pays the full depth per request; ours seeds the path once and
		// then serves from nearby fillers.
		deepA := trA.Deepest()
		deepB := trB.Deepest()
		reqs := int(m) - 1
		for i := 0; i < reqs; i++ {
			if _, err := trivial.Submit(controller.Request{Node: deepA, Kind: tree.None}); err != nil {
				break
			}
		}
		for i := 0; i < reqs; i++ {
			if _, err := ours.Submit(controller.Request{Node: deepB, Kind: tree.None}); err != nil {
				break
			}
		}
		trivialMoves := trivial.Counters().Get(stats.CounterMoves)
		oursTotal := tp.Cost(ours.Counters())
		tb.AddRow(depth, reqs, trivialMoves, oursTotal,
			float64(trivialMoves)/float64(oursTotal+1))
	}
	return tb
}

// e9SizeEstimation measures the estimator's amortized message cost per
// topological change (Thm 5.1) and verifies the β-approximation held
// throughout.
func e9SizeEstimation() *stats.Table {
	tb := stats.NewTable("E9: size estimation (β=2)",
		"n0", "changes", "messages", "msgs/change", "log²(n)", "β-invariant")
	for _, n := range []int{64, 256, 1024} {
		tr := buildTree(n, 9)
		tp := dist.Over(sim.NewDeterministic(9))
		est, err := estimator.New(tr, tp, 2)
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, 21)
		gen.SetMinSize(n / 4)
		invariantOK := true
		changes := 0
		for changes < 6*n {
			req, ok := gen.Next()
			if !ok {
				break
			}
			g, err := est.Submit(req)
			if err != nil {
				break
			}
			if g.Outcome == controller.Granted {
				changes++
			}
			if est.CheckApproximation() != nil {
				invariantOK = false
			}
		}
		total := tp.Cost(est.Counters())
		logN := stats.Log2(float64(n))
		tb.AddRow(n, changes, total, float64(total)/float64(changes), logN*logN, invariantOK)
	}
	return tb
}

// e10Naming measures the name-assignment protocol: message cost per change
// plus the id-range invariant (ids ≤ 4n at all times).
func e10Naming() *stats.Table {
	tb := stats.NewTable("E10: name assignment",
		"n0", "changes", "messages", "msgs/change", "maxID/n(final)", "invariant")
	for _, n := range []int{64, 256, 1024} {
		tr := buildTree(n, 10)
		tp := dist.Over(sim.NewDeterministic(10))
		nm := naming.New(tr, tp)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 23)
		gen.SetMinSize(n / 4)
		invariantOK := true
		changes := 0
		for changes < 4*n {
			req, ok := gen.Next()
			if !ok {
				break
			}
			g, err := nm.Submit(req)
			if err != nil {
				break
			}
			if g.Outcome == controller.Granted && req.Kind != tree.None {
				changes++
			}
			if nm.CheckInvariants() != nil {
				invariantOK = false
			}
		}
		maxID := int64(0)
		for _, v := range tr.Nodes() {
			if id, err := nm.ID(v); err == nil && id > maxID {
				maxID = id
			}
		}
		total := tp.Cost(nm.Counters())
		tb.AddRow(n, changes, total, float64(total)/float64(changes),
			float64(maxID)/float64(tr.Size()), invariantOK)
	}
	return tb
}

// e11HeavyChild measures the heavy-child decomposition: maximum light
// ancestors vs log₄⁄₃(n) (Thm 5.4).
func e11HeavyChild() *stats.Table {
	tb := stats.NewTable("E11: heavy-child decomposition",
		"n0", "final n", "max light ancestors", "log4/3(n)", "ratio")
	for _, n := range []int{64, 256, 1024} {
		tr := buildTree(n, 11)
		hc, err := heavychild.New(tr, dist.Over(sim.NewDeterministic(11)))
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(tr, workload.DefaultMix(), 25)
		gen.SetMinSize(n / 4)
		for i := 0; i < 3*n; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := hc.Submit(req); err != nil {
				break
			}
		}
		maxLight := 0
		for _, v := range tr.Nodes() {
			if la, err := hc.LightAncestors(v); err == nil && la > maxLight {
				maxLight = la
			}
		}
		logN := math.Log(float64(tr.Size())) / math.Log(4.0/3.0)
		tb.AddRow(n, tr.Size(), maxLight, logN, float64(maxLight)/logN)
	}
	return tb
}

// e12Labeling measures the dynamic ancestry labeling under shrink: label
// bits must track the current n, unlike a never-rebuilt static scheme.
func e12Labeling() *stats.Table {
	tb := stats.NewTable("E12: dynamic ancestry labels under shrink",
		"n(start)", "n(end)", "static bits (no rebuild)", "dynamic bits", "rebuilds")
	for _, n := range []int{512, 2048} {
		tr := buildTree(n, 12)
		dyn, err := labeling.NewDynamic(tr, dist.Over(sim.NewDeterministic(12)),
			func(tr *tree.Tree) (labeling.Scheme, int64) {
				return labeling.BuildAncestry(tr), int64(tr.Size())
			})
		if err != nil {
			panic(err)
		}
		staticBits := dyn.Scheme().MaxBits()
		gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 27)
		gen.SetMinSize(8)
		for i := 0; i < 10*n && tr.Size() > n/16; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := dyn.Submit(req); err != nil {
				break
			}
		}
		tb.AddRow(n, tr.Size(), staticBits, dyn.Scheme().MaxBits(), dyn.Rebuilds())
	}
	return tb
}

// e13Memory measures the maximum whiteboard size (Claim 4.8) on star and
// path topologies.
func e13Memory() *stats.Table {
	tb := stats.NewTable("E13: per-node whiteboard memory (bits)",
		"topology", "n", "max bits", "bound deg·logN+log³N+log²U")
	for _, shape := range []string{"star", "path"} {
		const n = 512
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: shape, Nodes: n}, 0); err != nil {
			panic(err)
		}
		m := int64(8 * n)
		u := int64(n) + 2*m
		core := dist.Over(sim.NewDeterministic(13)).NewCore(tr, u, m, m/2)
		gen := workload.NewChurn(tr, workload.EventOnlyMix(), 29)
		for i := 0; i < 4*n; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := core.Submit(req); err != nil {
				break
			}
		}
		logN := stats.CeilLog2(int(u)) + 1
		maxBits, maxDeg := 0, 0
		for _, id := range tr.Nodes() {
			if b := core.MemoryBitsAt(id); b > maxBits {
				maxBits = b
			}
			if d, err := tr.ChildCount(id); err == nil && d > maxDeg {
				maxDeg = d
			}
		}
		bound := maxDeg*logN + logN*logN*logN + logN*logN
		tb.AddRow(shape, n, maxBits, bound)
	}
	return tb
}

// e14Ablation checks the domain-invariant consequence the design rests on:
// the number of live level-k packages never exceeds U/(2^{k-1}ψ).
func e14Ablation() *stats.Table {
	tb := stats.NewTable("E14: level-package occupancy vs domain bound",
		"level", "max packages seen", "bound U/(2^{k-1}ψ)", "occupancy")
	const n = 800
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
		panic(err)
	}
	u := int64(n + 400)
	// W = U keeps psi minimal so the 800-deep path spans several package
	// levels (with W = 1, psi >= 4U exceeds any depth and only level-0
	// packages exist).
	c := controller.NewCore(tr, u, 1<<30, u)
	c.EnableDomainTracking()
	gen := workload.NewChurn(tr, workload.DefaultMix(), 31)
	gen.SetMinSize(n / 2)
	maxPerLevel := make(map[int]int)
	for i := 0; i < 400; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := c.Submit(req); err != nil {
			break
		}
		for level, count := range c.Domains().LevelCounts() {
			if count > maxPerLevel[level] {
				maxPerLevel[level] = count
			}
		}
	}
	for level := 0; level <= c.Params().MaxLevel; level++ {
		seen, ok := maxPerLevel[level]
		if !ok {
			continue
		}
		bound := float64(u) / float64(c.Params().DomainSize(level))
		tb.AddRow(level, seen, fmt.Sprintf("%.1f", bound), float64(seen)/bound)
	}
	return tb
}

// All returns every experiment table in order.
func All() []*stats.Table {
	return []*stats.Table{
		e1CentralizedMoves(), e2WasteSweep(), e3UnknownU(), e4MaxN(),
		e5DistVsCentral(), e6Liveness(), e7VsGrowOnly(), e8VsTrivial(),
		e9SizeEstimation(), e10Naming(), e11HeavyChild(), e12Labeling(),
		e13Memory(), e14Ablation(),
	}
}
