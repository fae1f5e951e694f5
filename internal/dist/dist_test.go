package dist_test

import (
	"fmt"
	"maps"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func buildTree(t testing.TB, n int, seed int64) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, seed); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSafetyAndLivenessUnderChurn drives the waste-halving controller with
// adversarial churn across parameters and seeds: at no point may more than
// M permits be granted (safety), and at the first reject at least M−W must
// have been granted (liveness). After exhaustion every request is rejected.
func TestSafetyAndLivenessUnderChurn(t *testing.T) {
	cases := []struct {
		name string
		n    int
		m, w int64
		mix  workload.Mix
	}{
		{"tight-waste", 24, 200, 1, workload.DefaultMix()},
		{"half-waste", 24, 200, 100, workload.DefaultMix()},
		{"zero-waste", 16, 120, 0, workload.DefaultMix()},
		{"shrink-heavy", 32, 150, 30, workload.ShrinkHeavyMix()},
		{"grow-only", 8, 100, 25, workload.GrowOnlyMix()},
		{"events-only", 20, 90, 10, workload.EventOnlyMix()},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				tr := buildTree(t, tc.n, seed)
				rt := sim.NewDeterministic(seed)
				it := dist.Over(rt).NewIterated(tr, int64(tc.n)+2*tc.m, tc.m, tc.w)
				gen := workload.NewChurn(tr, tc.mix, seed+100)
				gen.SetMinSize(tc.n/4 + 1)

				rejected := false
				for i := 0; i < int(tc.m)*6; i++ {
					req, ok := gen.Next()
					if !ok {
						break
					}
					g, err := it.Submit(req)
					if err != nil {
						t.Fatalf("submit %d: %v", i, err)
					}
					if it.Granted() > tc.m {
						t.Fatalf("SAFETY: granted %d > M=%d", it.Granted(), tc.m)
					}
					if g.Outcome == controller.Rejected {
						rejected = true
						break
					}
				}
				if !rejected {
					t.Fatalf("budget never exhausted (granted %d of %d)", it.Granted(), tc.m)
				}
				if it.Granted() < tc.m-tc.w {
					t.Fatalf("LIVENESS: granted %d < M−W = %d", it.Granted(), tc.m-tc.w)
				}
				// Exhaustion is final: every later request is rejected.
				for i := 0; i < 16; i++ {
					req, ok := gen.Next()
					if !ok {
						break
					}
					g, err := it.Submit(req)
					if err != nil {
						t.Fatalf("post-reject submit: %v", err)
					}
					if g.Outcome != controller.Rejected {
						t.Fatalf("post-reject outcome = %v, want Rejected", g.Outcome)
					}
				}
			})
		}
	}
}

// TestEpochsCosts pins what Epochs charges over both transports: each
// rollover pays the 2(n−1) termination sweep of the controller that ended
// and, distributed, the 2(n−1) broadcast/upcast that counts N_i. The
// constants pin those charges on one churn trace of 17 rollovers, so a
// rollover that charges more or less than that fails here.
func TestEpochsCosts(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   controller.Transport
		want map[string]int64
		cost int64
	}{
		{"centralized", controller.Centralized,
			map[string]int64{"grants": 400, "iterations": 18, "moves": 3820, "topo-changes": 303}, 3820},
		{"distributed", dist.Over(sim.NewDeterministic(3)),
			map[string]int64{"control-messages": 3458, "grants": 400, "iterations": 18, "topo-changes": 303}, 7758},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildTree(t, 24, 5)
			counters := stats.NewCounters()
			e := tc.tp.NewEpochs(tr, counters, func(_ int, ni int64) (int64, int64, []controller.CoreOption) {
				return max(ni/2, 1), ni / 4, nil
			})
			gen := workload.NewChurn(tr, workload.DefaultMix(), 9)
			for i := 0; i < 400; i++ {
				req, _ := gen.Next()
				if _, err := e.Submit(req); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			if e.Epoch() != 18 || tr.Size() != 97 {
				t.Fatalf("epoch %d over %d nodes, want 18 over 97", e.Epoch(), tr.Size())
			}
			if got := counters.Snapshot(); !maps.Equal(got, tc.want) {
				t.Fatalf("counters %v, want %v", got, tc.want)
			}
			if got := tc.tp.Cost(counters); got != tc.cost {
				t.Fatalf("cost %d, want %d", got, tc.cost)
			}
		})
	}
}

// TestCoreMatchesCentralized is the engine-equivalence table. Its first
// rows replay identical traces through the two fixed-U cores, the
// centralized controller.Core and the distributed core: the grant and
// reject sequences must be bitwise identical (same outcomes, serials and
// created node ids), the permit accounting must agree, and the delivered
// message count must stay within a constant factor of the centralized move
// count (Lemma 4.5 / Theorem 4.7). The "drivers" rows
// (engine_equiv_test.go) hold the one unknown-U driver stack to the same
// standard over both cores, batched and restored mid-trace.
func TestCoreMatchesCentralized(t *testing.T) {
	t.Run("drivers", testDriversMatchAcrossEngines)
	t.Run("applications", testApplicationsMatchAcrossEngines)

	cases := []struct {
		n    int
		m, w int64
		mix  workload.Mix
		seed int64
	}{
		{32, 256, 128, workload.DefaultMix(), 1},
		{64, 512, 256, workload.DefaultMix(), 2},
		{48, 300, 60, workload.ShrinkHeavyMix(), 3},
		{24, 200, 100, workload.GrowOnlyMix(), 4},
		{1, 64, 32, workload.DefaultMix(), 5},
		{40, 128, 1, workload.EventOnlyMix(), 6},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d-m%d-w%d-seed%d", tc.n, tc.m, tc.w, tc.seed), func(t *testing.T) {
			u := int64(tc.n) + 2*tc.m
			trC := buildTree(t, tc.n, tc.seed)
			trD := buildTree(t, tc.n, tc.seed)
			cen := controller.NewCore(trC, u, tc.m, tc.w)
			tp := dist.Over(sim.NewDeterministic(tc.seed))
			core := tp.NewCore(trD, u, tc.m, tc.w)
			genC := workload.NewChurn(trC, tc.mix, tc.seed+50)
			genD := workload.NewChurn(trD, tc.mix, tc.seed+50)
			genC.SetMinSize(tc.n/4 + 1)
			genD.SetMinSize(tc.n/4 + 1)

			steps := int(tc.m) * 4
			if testing.Short() {
				// The equivalence holds on every trace prefix; a shorter
				// replay keeps -short fast.
				steps = int(tc.m)
			}
			for i := 0; i < steps; i++ {
				reqC, okC := genC.Next()
				reqD, okD := genD.Next()
				if okC != okD {
					t.Fatalf("step %d: generators diverged", i)
				}
				if !okC {
					break
				}
				if reqC != reqD {
					t.Fatalf("step %d: requests diverged: %+v vs %+v", i, reqC, reqD)
				}
				gC, errC := cen.Submit(reqC)
				gD, errD := core.Submit(reqD)
				if (errC == nil) != (errD == nil) {
					t.Fatalf("step %d: error divergence: centralized %v, dist %v", i, errC, errD)
				}
				if errC != nil {
					continue
				}
				if gC != gD {
					t.Fatalf("step %d: grant divergence: centralized %+v, dist %+v", i, gC, gD)
				}
			}
			if cen.Granted() != core.Granted() || cen.Rejected() != core.Rejected() {
				t.Fatalf("tallies diverged: centralized %d/%d, dist %d/%d",
					cen.Granted(), cen.Rejected(), core.Granted(), core.Rejected())
			}
			if cen.Storage() != core.Storage() || cen.UnusedPermits() != core.UnusedPermits() {
				t.Fatalf("permit accounting diverged: storage %d vs %d, unused %d vs %d",
					cen.Storage(), core.Storage(), cen.UnusedPermits(), core.UnusedPermits())
			}
			if trC.Size() != trD.Size() || trC.EverExisted() != trD.EverExisted() {
				t.Fatalf("trees diverged: %d/%d vs %d/%d nodes",
					trC.Size(), trC.EverExisted(), trD.Size(), trD.EverExisted())
			}

			moves := cen.Counters().Get(stats.CounterMoves)
			msgs := tp.Cost(core.Counters())
			if msgs < moves {
				t.Fatalf("messages %d below centralized moves %d: descent accounting broken", msgs, moves)
			}
			// The climb to a filler never exceeds the descent it triggers,
			// so messages ≤ 2·moves plus one root climb for the reject
			// decision (Lemma 4.5).
			if bound := 3*moves + int64(4*trD.EverExisted()) + 64; msgs > bound {
				t.Fatalf("messages %d exceed constant-factor bound %d (moves %d)", msgs, bound, moves)
			}
		})
	}
}

// TestSerialsMatchCentralized runs both cores with explicit permit serials
// (the name-assignment configuration) and checks the granted serial numbers
// coincide request for request.
func TestSerialsMatchCentralized(t *testing.T) {
	const n, m, w = 16, 64, 16
	u := int64(n) + 2*m
	serials := pkgstore.Interval{Lo: 1000, Hi: 1000 + m - 1}
	trC := buildTree(t, n, 9)
	trD := buildTree(t, n, 9)
	cen := controller.NewCore(trC, u, m, w, controller.WithSerials(serials))
	rt := sim.NewDeterministic(9)
	core := dist.Over(rt).NewCore(trD, u, m, w, controller.WithSerials(serials))
	genC := workload.NewChurn(trC, workload.GrowOnlyMix(), 77)
	genD := workload.NewChurn(trD, workload.GrowOnlyMix(), 77)

	for i := 0; i < m; i++ {
		reqC, ok := genC.Next()
		if !ok {
			break
		}
		reqD, _ := genD.Next()
		gC, errC := cen.Submit(reqC)
		gD, errD := core.Submit(reqD)
		if (errC == nil) != (errD == nil) {
			t.Fatalf("step %d: error divergence: %v vs %v", i, errC, errD)
		}
		if errC != nil {
			break
		}
		if gC.Serial != gD.Serial {
			t.Fatalf("step %d: serial %d (centralized) vs %d (dist)", i, gC.Serial, gD.Serial)
		}
		if gC.Outcome == controller.Granted && gC.Serial < serials.Lo {
			t.Fatalf("step %d: granted serial %d below interval", i, gC.Serial)
		}
	}
}

// TestDescentObserverCoversGrants checks the estimator's contract: the
// total permit mass reported through the descent observer at the root is at
// least the number of permits granted strictly below it.
func TestDescentObserverCoversGrants(t *testing.T) {
	const n, m = 24, 100
	tr := buildTree(t, n, 13)
	rt := sim.NewDeterministic(13)
	passed := make(map[tree.NodeID]int64)
	core := dist.Over(rt).NewCore(tr, int64(n)+2*m, m, m/2,
		controller.WithDescentObserver(func(size int64, enters tree.NodeID) {
			passed[enters] += size
		}))
	gen := workload.NewChurn(tr, workload.GrowOnlyMix(), 29)
	grantsBelowRoot := int64(0)
	for i := 0; i < 60; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := core.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if g.Outcome == controller.Granted {
			grantsBelowRoot++
		}
	}
	if passed[tr.Root()] < grantsBelowRoot {
		t.Fatalf("root observed %d permit mass, %d grants occurred", passed[tr.Root()], grantsBelowRoot)
	}
}

// TestDynamicUnknownU drives the headline unknown-U controller: it must
// restart iterations as the tree churns, never over-grant, and reject
// everything after exhaustion.
func TestDynamicUnknownU(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := buildTree(t, 48, seed)
		rt := sim.NewDeterministic(seed)
		d := dist.Over(rt).NewDynamic(tr, 600, 60)
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+7)
		gen.SetMinSize(12)
		res, err := workload.Run(d, gen, 3000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if int64(res.Granted) > 600 {
			t.Fatalf("seed %d: SAFETY: granted %d > M=600", seed, res.Granted)
		}
		if res.Rejected == 0 {
			t.Fatalf("seed %d: budget never exhausted (granted %d)", seed, res.Granted)
		}
		if d.Iterations() < 2 {
			t.Fatalf("seed %d: only %d iterations; churn should restart the inner controller", seed, d.Iterations())
		}
		if msgs := dist.Over(rt).Cost(d.Counters()); msgs == 0 {
			t.Fatalf("seed %d: no messages accounted", seed)
		}
	}
}

// TestMemoryBits sanity-checks the whiteboard accounting of Claim 4.8.
func TestMemoryBits(t *testing.T) {
	const n, m = 32, 200
	tr := buildTree(t, n, 3)
	rt := sim.NewDeterministic(3)
	core := dist.Over(rt).NewCore(tr, int64(n)+2*m, m, m/2)
	gen := workload.NewChurn(tr, workload.EventOnlyMix(), 11)
	for i := 0; i < 32; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := core.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	maxBits := 0
	for _, id := range tr.Nodes() {
		if b := core.MemoryBitsAt(id); b > maxBits {
			maxBits = b
		}
	}
	if maxBits <= 0 {
		t.Fatal("no whiteboard memory recorded after grants")
	}
	if core.MemoryBitsAt(tree.NodeID(1<<30)) != 0 {
		t.Fatal("memory of a nonexistent node must be 0")
	}
}
