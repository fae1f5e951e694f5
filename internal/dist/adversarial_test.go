package dist_test

import (
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// This file exercises the protocol's edge cases under the adversarial
// scheduler catalog: cross-schedule trace equivalence, graceful deletion of
// nodes holding drop-point packages, and reject-wave legality when the
// wave's flood messages are reordered.

// recordChurnTrace drives a churn generator against a throwaway controller
// and records the request sequence it produced, so the identical trace can
// be replayed against fresh controllers under every scheduler.
func recordChurnTrace(t *testing.T, n, steps int, mix workload.Mix, seed int64) []controller.Request {
	t.Helper()
	tr := buildTree(t, n, seed)
	ctl := dist.Over(sim.NewDeterministic(seed)).NewDynamic(tr, int64(steps)*4, int64(steps))
	gen := workload.NewChurn(tr, mix, seed+1)
	gen.SetMinSize(n / 2)
	var reqs []controller.Request
	for i := 0; i < steps; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := ctl.Submit(req); err != nil {
			t.Fatalf("record step %d: %v", i, err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// TestCrossSchedulerTraceEquivalence replays one churn trace through fresh
// controllers under every scheduler in the catalog: the grant/reject/serial
// sequence and the delivered message count must be identical, because the
// protocol's per-request drains commute.
func TestCrossSchedulerTraceEquivalence(t *testing.T) {
	const n, steps = 48, 500
	m, w := int64(steps)*4, int64(steps)
	reqs := recordChurnTrace(t, n, steps, workload.DefaultMix(), 3)

	type replay struct {
		outcomes []controller.Grant
		messages int64
	}
	run := func(sched string) replay {
		tr := buildTree(t, n, 3)
		rt, err := sim.NewRuntime(sched, 11)
		if err != nil {
			t.Fatal(err)
		}
		ctl := dist.Over(rt).NewDynamic(tr, m, w)
		var out []controller.Grant
		for i, req := range reqs {
			g, err := ctl.Submit(req)
			if err != nil {
				t.Fatalf("%s: replay step %d: %v", sched, i, err)
			}
			out = append(out, g)
		}
		return replay{outcomes: out, messages: rt.Messages()}
	}

	base := run("fifo")
	for _, sched := range sim.SchedulerNames() {
		got := run(sched)
		if got.messages != base.messages {
			t.Fatalf("%s delivered %d messages, fifo %d", sched, got.messages, base.messages)
		}
		for i := range base.outcomes {
			if got.outcomes[i] != base.outcomes[i] {
				t.Fatalf("%s diverged at request %d: %+v vs fifo %+v",
					sched, i, got.outcomes[i], base.outcomes[i])
			}
		}
	}
}

// TestGracefulDeletionOfDropPointNode drives a deep-path request so that
// procedure Proc leaves mobile packages at drop points, then gracefully
// deletes a package-holding drop point mid-path and checks that the
// handoff is lossless: permits are conserved (storage + packages + granted
// = M), the packages reappear at the parent, and later requests still
// complete. The whole dance is repeated under every scheduler.
func TestGracefulDeletionOfDropPointNode(t *testing.T) {
	for _, sched := range sim.SchedulerNames() {
		t.Run(sched, func(t *testing.T) {
			const n = 96
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
				t.Fatal(err)
			}
			rt, err := sim.NewRuntime(sched, 7)
			if err != nil {
				t.Fatal(err)
			}
			// U/M/W are tuned so the deep request climbs past 2ψ and the
			// root funds a level-1 package with φ = 2: the descent must
			// split at a drop point, leaving a package mid-path, and each
			// package holds enough permits to survive the grant that
			// consumes one.
			m, w := int64(600), int64(512)
			core := dist.Over(rt).NewCore(tr, 128, m, w)
			if p := core.Params(); 2*p.Psi >= int64(n) {
				t.Fatalf("tuning broken: 2ψ = %d >= path length %d, no drop points will form", 2*p.Psi, n)
			}

			conserve := func(when string) {
				t.Helper()
				if got := core.UnusedPermits() + core.Granted(); got != m {
					t.Fatalf("%s: unused %d + granted %d != M %d — permits leaked",
						when, core.UnusedPermits(), core.Granted(), m)
				}
			}

			// A request at the path's tip forces a root-funded package to
			// descend the full path, splitting at every drop point.
			tip := deepestOf(t, tr)
			if g, err := core.Submit(controller.Request{Node: tip, Kind: tree.None}); err != nil ||
				g.Outcome != controller.Granted {
				t.Fatalf("deep request: grant %+v, err %v", g, err)
			}
			conserve("after deep request")

			// Find a strict ancestor of the tip that holds packages: a drop
			// point left by the descent.
			victim := tree.InvalidNode
			path, err := tr.PathToRoot(tip)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range path[1 : len(path)-1] {
				if core.NodePermits(id) > 0 {
					victim = id
					break
				}
			}
			if victim == tree.InvalidNode {
				t.Fatal("no drop point holds packages; the scenario is vacuous")
			}
			held := core.NodePermits(victim)
			parent, err := tr.Parent(victim)
			if err != nil {
				t.Fatal(err)
			}
			parentBefore := core.NodePermits(parent)

			// Gracefully delete the drop point (the deletion request itself
			// consumes one permit, possibly from the victim's own store).
			if g, err := core.Submit(controller.Request{Node: victim, Kind: tree.RemoveInternal}); err != nil ||
				g.Outcome != controller.Granted {
				t.Fatalf("delete drop point: grant %+v, err %v", g, err)
			}
			if tr.Contains(victim) {
				t.Fatal("victim still in the tree")
			}
			conserve("after graceful deletion")
			// The deletion grant consumed at most one of the victim's
			// permits; the rest must have crossed to the parent.
			if got := core.NodePermits(parent); got <= parentBefore || got > parentBefore+held {
				t.Fatalf("parent holds %d permits (held %d before deletion of a node holding %d) — handoff lost packages",
					got, parentBefore, held)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}

			// The protocol keeps working: requests at the new tip (one hop
			// below the deleted node's position) and at the root both land.
			for _, at := range []tree.NodeID{deepestOf(t, tr), tr.Root()} {
				if g, err := core.Submit(controller.Request{Node: at, Kind: tree.None}); err != nil ||
					g.Outcome != controller.Granted {
					t.Fatalf("post-deletion request at %d: grant %+v, err %v", at, g, err)
				}
			}
			conserve("after post-deletion requests")
		})
	}
}

func deepestOf(t *testing.T, tr *tree.Tree) tree.NodeID {
	t.Helper()
	best, bestD := tr.Root(), -1
	for _, id := range tr.Nodes() {
		d, err := tr.Depth(id)
		if err != nil {
			t.Fatal(err)
		}
		if d > bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best
}

// TestRejectWaveFromDeepSearchUnderSchedulers exhausts a tight-budget core
// with requests from the deepest node, so the final filler search climbs
// the whole path before the root starts the reject wave — the "reject
// during filler search" edge. Under every scheduler the wave's flood
// messages are reordered differently, but the wave must still reach every
// node (all later requests reject, nothing is granted after the wave) and
// the waste bound must hold.
func TestRejectWaveFromDeepSearchUnderSchedulers(t *testing.T) {
	for _, sched := range sim.SchedulerNames() {
		t.Run(sched, func(t *testing.T) {
			const n = 64
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
				t.Fatal(err)
			}
			rt, err := sim.NewRuntime(sched, 13)
			if err != nil {
				t.Fatal(err)
			}
			m, w := int64(48), int64(24)
			core := dist.Over(rt).NewCore(tr, int64(n)*4, m, w)

			tip := deepestOf(t, tr)
			sawReject := false
			for i := 0; i < 3*int(m); i++ {
				g, err := core.Submit(controller.Request{Node: tip, Kind: tree.None})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if g.Outcome == controller.Rejected {
					sawReject = true
					break
				}
			}
			if !sawReject {
				t.Fatal("budget never exhausted")
			}
			if core.Granted() < m-w {
				t.Fatalf("waste bound broken: %d granted at first reject, want >= %d",
					core.Granted(), m-w)
			}
			grantedAtWave := core.Granted()

			// The wave must have flooded every node: a request anywhere is
			// rejected from the local reject package without new grants.
			for _, id := range tr.Nodes() {
				g, err := core.Submit(controller.Request{Node: id, Kind: tree.None})
				if err != nil {
					t.Fatalf("post-wave request at %d: %v", id, err)
				}
				if g.Outcome != controller.Rejected {
					t.Fatalf("post-wave request at %d: %v, want Rejected", id, g.Outcome)
				}
			}
			if core.Granted() != grantedAtWave {
				t.Fatalf("grants after the reject wave: %d -> %d", grantedAtWave, core.Granted())
			}
		})
	}
}

// TestChurnPermitConservationAcrossSchedulers runs storm churn — including
// graceful deletions of package-holding nodes — through a fixed-U core and
// checks the permit conservation invariant storage+packages+granted == M
// after every single request, under every scheduler.
func TestChurnPermitConservationAcrossSchedulers(t *testing.T) {
	for _, sched := range sim.SchedulerNames() {
		t.Run(sched, func(t *testing.T) {
			const n, steps = 40, 400
			tr := buildTree(t, n, 9)
			rt, err := sim.NewRuntime(sched, 17)
			if err != nil {
				t.Fatal(err)
			}
			m := int64(steps) * 2
			core := dist.Over(rt).NewCore(tr, int64(n+steps), m, m/4)
			mix, err := workload.MixByName("storm")
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewChurn(tr, mix, 21)
			gen.SetMinSize(n / 2)
			for i := 0; i < steps; i++ {
				req, ok := gen.Next()
				if !ok {
					break
				}
				if _, err := core.Submit(req); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if got := core.UnusedPermits() + core.Granted(); got != m {
					t.Fatalf("step %d (%v at %d): unused %d + granted %d != M %d",
						i, req.Kind, req.Node, core.UnusedPermits(), core.Granted(), m)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
