package controller_test

import (
	"math"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func newPathTree(t *testing.T, n int) (*tree.Tree, []tree.NodeID) {
	t.Helper()
	tr, root := tree.New()
	ids := []tree.NodeID{root}
	cur := root
	for i := 1; i < n; i++ {
		id, err := tr.ApplyAddLeaf(cur)
		if err != nil {
			t.Fatalf("build path: %v", err)
		}
		ids = append(ids, id)
		cur = id
	}
	return tr, ids
}

func TestGrantAtRoot(t *testing.T) {
	tr, _ := tree.New()
	c := ctl.NewCore(tr, 8, 4, 1)
	g, err := c.Submit(ctl.Request{Node: tr.Root(), Kind: tree.None})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g.Outcome != ctl.Granted {
		t.Fatalf("outcome = %v, want ctl.Granted", g.Outcome)
	}
	if c.Granted() != 1 {
		t.Fatalf("ctl.Granted() = %d, want 1", c.Granted())
	}
	if c.Storage() != 3 {
		t.Fatalf("Storage() = %d, want 3 (one level-0 package of φ=1 funded)", c.Storage())
	}
}

func TestSafetyNeverExceedsM(t *testing.T) {
	tr, root := tree.New()
	const m = 10
	c := ctl.NewCore(tr, 64, m, 3)
	grants, rejects := 0, 0
	for i := 0; i < 50; i++ {
		g, err := c.Submit(ctl.Request{Node: root, Kind: tree.None})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		switch g.Outcome {
		case ctl.Granted:
			grants++
		case ctl.Rejected:
			rejects++
		}
	}
	if grants > m {
		t.Fatalf("granted %d > M=%d: safety violated", grants, m)
	}
	if rejects == 0 {
		t.Fatal("expected rejects after exhaustion")
	}
	// After the reject wave every request is rejected.
	g, err := c.Submit(ctl.Request{Node: root, Kind: tree.None})
	if err != nil || g.Outcome != ctl.Rejected {
		t.Fatalf("post-wave submit = %v, %v; want ctl.Rejected", g.Outcome, err)
	}
}

func TestLivenessAtFirstReject(t *testing.T) {
	// When the first reject is issued, at least M−W permits must have
	// been granted (Lemma 3.2).
	for _, tc := range []struct {
		name string
		n    int
		m, w int64
	}{
		{"tight", 20, 40, 8},
		{"wasteful", 30, 100, 60},
		{"deep", 60, 50, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, ids := newPathTree(t, tc.n)
			u := int64(tc.n) + tc.m + 8
			c := ctl.NewCore(tr, u, tc.m, tc.w)
			gen := workload.NewChurn(tr, workload.EventOnlyMix(), 11)
			_ = ids
			for {
				req, ok := gen.Next()
				if !ok {
					t.Fatal("generator dried up")
				}
				g, err := c.Submit(req)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				if g.Outcome == ctl.Rejected {
					break
				}
			}
			if got := c.Granted(); got < tc.m-tc.w {
				t.Fatalf("granted %d < M−W = %d: liveness violated", got, tc.m-tc.w)
			}
			if got := c.Granted(); got > tc.m {
				t.Fatalf("granted %d > M = %d: safety violated", got, tc.m)
			}
		})
	}
}

func TestFillerReuse(t *testing.T) {
	// A second request near the first should be served from leftover
	// packages (filler nodes) without touching the root storage, once the
	// first descent seeded the path.
	// W >= U keeps psi small (48 here), so a 400-deep path spans several
	// package levels and the first descent leaves fillers behind. (With
	// W = 1, psi >= 4U exceeds any possible depth and every request is
	// served from the root; the waste-halving driver exists precisely
	// to run the core at large effective W.)
	tr, ids := newPathTree(t, 400)
	deep := ids[len(ids)-1]
	c := ctl.NewCore(tr, 1024, 1<<20, 1024)
	if _, err := c.Submit(ctl.Request{Node: deep, Kind: tree.None}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	storageAfterFirst := c.Storage()
	movesAfterFirst := c.Counters().Get(stats.CounterMoves)
	if _, err := c.Submit(ctl.Request{Node: deep, Kind: tree.None}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if c.Storage() != storageAfterFirst {
		t.Fatalf("second request consumed root storage (%d -> %d); expected filler reuse",
			storageAfterFirst, c.Storage())
	}
	movesSecond := c.Counters().Get(stats.CounterMoves) - movesAfterFirst
	if movesSecond >= movesAfterFirst {
		t.Fatalf("second request cost %d moves, first cost %d; expected locality",
			movesSecond, movesAfterFirst)
	}
}

func TestTopologicalGrantsApply(t *testing.T) {
	tr, root := tree.New()
	c := ctl.NewCore(tr, 64, 32, 8)

	// Add a leaf.
	g, err := c.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("add leaf: %v, %v", g.Outcome, err)
	}
	leaf := g.NewNode
	if !tr.Contains(leaf) {
		t.Fatal("granted leaf not in tree")
	}
	// Split the edge root->leaf.
	g, err = c.Submit(ctl.Request{Node: root, Kind: tree.AddInternal, Child: leaf})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("add internal: %v, %v", g.Outcome, err)
	}
	mid := g.NewNode
	p, _ := tr.Parent(leaf)
	if p != mid {
		t.Fatalf("leaf's parent = %d, want inserted node %d", p, mid)
	}
	// Remove the internal node.
	g, err = c.Submit(ctl.Request{Node: mid, Kind: tree.RemoveInternal})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("remove internal: %v, %v", g.Outcome, err)
	}
	if tr.Contains(mid) {
		t.Fatal("removed internal node still present")
	}
	// Remove the leaf.
	g, err = c.Submit(ctl.Request{Node: leaf, Kind: tree.RemoveLeaf})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("remove leaf: %v, %v", g.Outcome, err)
	}
	if tr.Size() != 1 {
		t.Fatalf("tree size = %d, want 1", tr.Size())
	}
	if got := c.Counters().Get(stats.CounterTopoChanges); got != 4 {
		t.Fatalf("topo changes = %d, want 4", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	tr, root := tree.New()
	c := ctl.NewCore(tr, 16, 8, 2)
	g, err := c.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("setup: %v %v", g, err)
	}
	leaf := g.NewNode

	cases := []struct {
		name string
		req  ctl.Request
	}{
		{"remove root as leaf", ctl.Request{Node: root, Kind: tree.RemoveLeaf}},
		{"remove internal that is leaf", ctl.Request{Node: leaf, Kind: tree.RemoveInternal}},
		{"remove leaf that is internal", ctl.Request{Node: root, Kind: tree.RemoveLeaf}},
		{"add internal wrong parent", ctl.Request{Node: leaf, Kind: tree.AddInternal, Child: leaf}},
		{"missing node", ctl.Request{Node: 9999, Kind: tree.None}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Submit(tc.req); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestDeletionMovesPackagesToParent(t *testing.T) {
	// With W ≥ 2U, φ > 1, so a grant leaves a static remainder at the
	// node; deleting the node must move that remainder to its parent.
	tr, ids := newPathTree(t, 4)
	leaf := ids[len(ids)-1]
	parent := ids[len(ids)-2]
	c := ctl.NewCore(tr, 16, 1000, 512) // φ = 512/32 = 16
	if c.Params().Phi <= 1 {
		t.Fatalf("test needs φ > 1, got %d", c.Params().Phi)
	}
	if _, err := c.Submit(ctl.Request{Node: leaf, Kind: tree.None}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The leaf now holds a static package with φ−1 permits.
	g, err := c.Submit(ctl.Request{Node: leaf, Kind: tree.RemoveLeaf})
	if err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("remove leaf: %v, %v", g, err)
	}
	// Remainder (φ−2 permits after the removal grant) must be at parent.
	want := c.Params().Phi - 2
	got := c.NodePermits(parent)
	if got < want {
		t.Fatalf("parent holds %d permits, want at least %d", got, want)
	}
}

// TestTerminatingRejectsAfterTermination checks the terminating core of
// Observation 2.1 on the message-passing engine, a no-reject core: it grants between M−W and M permits,
// then answers WouldReject, and every later request leaves Granted where it
// was.
func TestTerminatingRejectsAfterTermination(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 12}, 7); err != nil {
		t.Fatal(err)
	}
	core := dist.Over(sim.NewDeterministic(7)).NewCore(tr, 64, 20, 5, ctl.WithNoRejects())

	root := tr.Root()
	var granted int64
	terminated := false
	for i := 0; i < 64 && !terminated; i++ {
		g, err := core.Submit(ctl.Request{Node: root, Kind: tree.None})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		switch g.Outcome {
		case ctl.Granted:
			granted++
		case ctl.WouldReject:
			terminated = true
		default:
			t.Fatalf("submit %d: outcome %v from a no-reject core", i, g.Outcome)
		}
	}
	if !terminated {
		t.Fatal("core never answered WouldReject")
	}
	if granted != core.Granted() {
		t.Fatalf("counted %d grants, core granted %d", granted, core.Granted())
	}
	if granted > 20 || granted < 15 {
		t.Fatalf("granted %d outside [M−W, M] = [15, 20]", granted)
	}
	for i := 0; i < 8; i++ {
		if g, err := core.Submit(ctl.Request{Node: root, Kind: tree.None}); err != nil || g.Outcome == ctl.Granted {
			t.Fatalf("post-termination submit %d: %v, %v", i, g.Outcome, err)
		}
	}
	if core.Granted() != granted {
		t.Fatalf("granted moved after termination: %d -> %d", granted, core.Granted())
	}
}

func TestNoRejectsModeWouldReject(t *testing.T) {
	tr, root := tree.New()
	c := ctl.NewCore(tr, 8, 2, 0, ctl.WithNoRejects())
	for i := 0; i < 2; i++ {
		g, err := c.Submit(ctl.Request{Node: root, Kind: tree.None})
		if err != nil || g.Outcome != ctl.Granted {
			t.Fatalf("grant %d: %v %v", i, g.Outcome, err)
		}
	}
	g, err := c.Submit(ctl.Request{Node: root, Kind: tree.None})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g.Outcome != ctl.WouldReject {
		t.Fatalf("outcome = %v, want ctl.WouldReject", g.Outcome)
	}
	// No reject wave must have been broadcast.
	if c.HasRejectAt(root) {
		t.Fatal("no-reject core must not place reject packages")
	}
}

func TestSerialsUniqueAndInRange(t *testing.T) {
	tr, ids := newPathTree(t, 12)
	const m = 30
	c := ctl.NewCore(tr, 64, m, 5, ctl.WithSerials(pkgstore.Interval{Lo: 101, Hi: 101 + m - 1}))
	seen := make(map[int64]bool)
	gen := workload.NewChurn(tr, workload.EventOnlyMix(), 3)
	_ = ids
	for i := 0; i < m+10; i++ {
		req, _ := gen.Next()
		g, err := c.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if g.Outcome != ctl.Granted {
			continue
		}
		if g.Serial < 101 || g.Serial > 101+m-1 {
			t.Fatalf("serial %d out of range", g.Serial)
		}
		if seen[g.Serial] {
			t.Fatalf("serial %d granted twice", g.Serial)
		}
		seen[g.Serial] = true
	}
	if len(seen) == 0 {
		t.Fatal("no serials granted")
	}
}

// domainRun is a churn of the given requests over the tree build makes, on a
// fixed-U (U, 2^30, w)-controller that tracks domains, with check run after
// every request.
type domainRun struct {
	build    func(*tree.Tree) error
	requests int
	seed     int64
	w        int64
}

// The churn and the deep path: deep paths trigger multi-level descents,
// exercising many domains. At W = 1 the distance scale ψ is 4⌈log₂U+2⌉·U,
// deeper than either tree, so every package is created at level 0 and no
// domain forms; at W ≥ U it is 48 and a request 97 hops below the root
// already takes a level-1 package. The wide churn grows its bushy tree on a
// spine of 300 to be that deep.
var (
	churnDomains = domainRun{func(tr *tree.Tree) error { return tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 80}, 5) }, 400, 99, 1}
	deepDomains  = domainRun{func(tr *tree.Tree) error { return tree.Build(tr, tree.Shape{Kind: "path", Nodes: 600}, 0) }, 200, 17, 1}
	wideChurn    = domainRun{func(tr *tree.Tree) error {
		if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: 300}, 0); err != nil {
			return err
		}
		return tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 600}, 5)
	}, 400, 99, 1 << 12}
	wideDeep = domainRun{deepDomains.build, 200, 17, 1 << 12}
)

func (r domainRun) replay(t *testing.T, check func(*ctl.Core) error) *ctl.Core {
	t.Helper()
	tr, _ := tree.New()
	if err := r.build(tr); err != nil {
		t.Fatalf("build: %v", err)
	}
	u := int64(tr.Size() + r.requests + 8)
	c := ctl.NewCore(tr, u, 1<<30, r.w)
	c.EnableDomainTracking()
	gen := workload.NewChurn(tr, workload.DefaultMix(), r.seed)
	for i := 0; i < r.requests; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := c.Submit(req); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if err := check(c); err != nil {
			t.Fatalf("after request %d (%v at %d): %v", i, req.Kind, req.Node, err)
		}
	}
	return c
}

func checkDomainInvariants(c *ctl.Core) error { return c.Domains().CheckInvariants() }

func TestDomainInvariantsUnderChurn(t *testing.T) {
	c := churnDomains.replay(t, checkDomainInvariants)
	if err := c.Tree().Validate(); err != nil {
		t.Fatalf("tree validate: %v", err)
	}
}

func TestDomainInvariantsDeepPath(t *testing.T) {
	deepDomains.replay(t, checkDomainInvariants)
}

// TestDomainTrackerFollowsPackages holds the tracker to the packages it
// follows while their addresses move: a store's slice grows, a removal swaps
// its last package into the freed slot, and a graceful deletion copies a
// node's packages into its parent's store. After every request, every domain
// must still name a mobile package of its level in its host's store, and no
// two domains the same one.
func TestDomainTrackerFollowsPackages(t *testing.T) {
	for name, r := range map[string]domainRun{"churn": wideChurn, "deep": wideDeep} {
		t.Run(name, func(t *testing.T) {
			formed := 0
			r.replay(t, func(c *ctl.Core) error {
				formed = max(formed, c.Domains().Count())
				if err := c.CheckDomainPackages(); err != nil {
					return err
				}
				return c.Domains().CheckInvariants()
			})
			if formed < 4 {
				t.Fatalf("at most %d domains at a time: too few to move", formed)
			}
			t.Logf("up to %d domains at a time", formed)
		})
	}
}

func TestLevelPackageCountBound(t *testing.T) {
	// Ablation check (E14): the number of level-k packages never exceeds
	// U/(2^{k-1}ψ), the bound implied by domain invariants 1+2.
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: 500}, 0); err != nil {
		t.Fatalf("build: %v", err)
	}
	u := int64(tr.Size() + 300)
	c := ctl.NewCore(tr, u, 1<<30, 1)
	c.EnableDomainTracking()
	gen := workload.NewChurn(tr, workload.DefaultMix(), 7)
	for i := 0; i < 250; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := c.Submit(req); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		for level, count := range c.Domains().LevelCounts() {
			bound := float64(u) / float64(c.Params().DomainSize(level))
			if float64(count) > bound {
				t.Fatalf("level %d has %d packages, bound %.1f", level, count, bound)
			}
		}
	}
}

func TestUnusedPermitsConservation(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 40}, 2); err != nil {
		t.Fatal(err)
	}
	const m = 500
	c := ctl.NewCore(tr, 256, m, 100)
	gen := workload.NewChurn(tr, workload.DefaultMix(), 31)
	for i := 0; i < 120; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := c.Submit(req); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if got := c.UnusedPermits() + c.Granted(); got != m {
			t.Fatalf("permit conservation violated: unused+granted = %d, want %d", got, m)
		}
	}
}

func TestClearPackagesReturnsPermits(t *testing.T) {
	tr, ids := newPathTree(t, 100)
	c := ctl.NewCore(tr, 256, 1000, 900) // psi = 40: the 99-deep tip needs a level-1 package
	if _, err := c.Submit(ctl.Request{Node: ids[len(ids)-1], Kind: tree.None}); err != nil {
		t.Fatal(err)
	}
	if c.Storage() == 1000-1 {
		t.Fatal("expected permits outside storage before clear")
	}
	c.ClearPackages()
	if got := c.Storage(); got != 1000-1 {
		t.Fatalf("after clear storage = %d, want %d", got, 1000-1)
	}
}

func TestMoveComplexityWithinTheoreticalBound(t *testing.T) {
	// Single fixed-U core bound (Lemma 3.3): O(U·(M/W)·log²U). Use a
	// generous constant and check the measured moves stay below it.
	for _, n := range []int{64, 256} {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, 1); err != nil {
			t.Fatal(err)
		}
		requests := 4 * n
		u := int64(n + requests + 8)
		m := int64(u)
		w := m / 2
		c := ctl.NewCore(tr, u, m, w)
		gen := workload.NewChurn(tr, workload.DefaultMix(), 13)
		for i := 0; i < requests; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			g, err := c.Submit(req)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if g.Outcome == ctl.Rejected {
				break
			}
		}
		moves := float64(c.Counters().Get(stats.CounterMoves))
		logU := math.Log2(float64(u))
		bound := 64 * float64(u) * (float64(m) / float64(w)) * logU * logU
		if moves > bound {
			t.Fatalf("n=%d: moves %.0f exceed generous bound %.0f", n, moves, bound)
		}
	}
}

// TestDescentObserver pins the observer's contract on the centralized core:
// one call for each node a package enters, the root included when the
// storage funds a package there.
func TestDescentObserver(t *testing.T) {
	tr, ids := newPathTree(t, 300)
	var entered, atRoot int64
	c := ctl.NewCore(tr, 1024, 1<<20, 1, ctl.WithDescentObserver(
		func(size int64, enters tree.NodeID) {
			if size < 1 {
				t.Errorf("package of size %d entered %d", size, enters)
			}
			entered++
			if enters == tr.Root() {
				atRoot++
			}
		}))
	if _, err := c.Submit(ctl.Request{Node: ids[len(ids)-1], Kind: tree.None}); err != nil {
		t.Fatal(err)
	}
	// Every move of a package over one edge enters one node, and the one
	// package the request made the storage fund entered the root first.
	moves := c.Counters().Get(stats.CounterMoves)
	if moves == 0 || atRoot != 1 || entered != moves+1 {
		t.Fatalf("observer heard %d entries, %d of them at the root; %d moves", entered, atRoot, moves)
	}
}

// TestDescentObservedMoveAllocatesNothing gates what the estimator's runs pay
// on every package move: the path a package descends is written into the
// core's scratch, so a move under a descent observer costs no allocation once
// the scratch has seen a path as long.
func TestDescentObservedMoveAllocatesNothing(t *testing.T) {
	tr, ids := newPathTree(t, 300)
	var entered int64
	c := ctl.NewCore(tr, 1024, 1<<20, 1, ctl.WithDescentObserver(
		func(int64, tree.NodeID) { entered++ }))
	pk := pkgstore.NewMobile(c.Params(), 1)
	host, target := ids[20], ids[280]
	move := func() { c.MoveDown(pk, host, target, 260) }
	move()
	if allocs := testing.AllocsPerRun(100, move); allocs != 0 {
		t.Errorf("a package move of 260 hops under a descent observer costs %v allocations, want 0", allocs)
	}
	if entered != 102*260 {
		t.Fatalf("observer heard %d entries over 102 moves of 260 hops", entered)
	}
}

func TestOutcomeString(t *testing.T) {
	if ctl.Granted.String() != "granted" || ctl.Rejected.String() != "rejected" ||
		ctl.WouldReject.String() != "would-reject" {
		t.Fatal("Outcome.String mismatch")
	}
}
