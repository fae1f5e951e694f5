package controller_test

import (
	"math/rand"
	"slices"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// expressRun is a maskRun whose filler searches are compared with the climb
// that visits every node, and which counts what the express climb did on the
// way, so that a run in which it never jumped proves nothing.
type expressRun struct {
	*maskRun
	jumps    int // express links taken past two hops or more
	dirty    int // hops walked because the block above held a mark
	relinked int // marked nodes an internal change gave another link
}

// compare holds the filler search from u to a plain Climb that runs the
// filler test at every node, and AppendAncestors, at distances spread over
// the climbed path, to that many parent hops.
func (r *expressRun) compare(t *testing.T, u tree.NodeID) {
	t.Helper()
	var wantPk *pkgstore.Package
	board := r.d.Board()
	wantHost, wantDist, err := r.tr.Climb(u, func(w tree.NodeID, d int) bool {
		wantPk = board.Filler(w, int64(d))
		return wantPk != nil
	})
	if err != nil {
		t.Fatal(err)
	}
	host, dist, pk, err := r.d.FindFiller(u)
	if err != nil || host != wantHost || dist != int64(wantDist) || pk != wantPk {
		t.Fatalf("findFiller(%d) = host %d at distance %d with package %p (%v), the plain climb finds host %d at distance %d with package %p",
			u, host, dist, pk, err, wantHost, wantDist, wantPk)
	}
	// What the express climb just did, replayed from the counts: it took the
	// link wherever the block above was clean, which must not pass the host.
	for w, at := u, 0; at < wantDist; {
		stop := r.tr.Express(w)
		if r.d.BlockAt(stop) != 0 {
			r.dirty++
			w, at = r.parentOf(t, w), at+1
			continue
		}
		step, err := r.tr.Distance(w, stop)
		if err != nil || at+step > wantDist {
			t.Fatalf("climb from %d: the block of stop %d counts no mark, yet the filler %d at distance %d lies inside it (%v)",
				u, stop, wantHost, wantDist, err)
		}
		if step > 1 {
			r.jumps++
		}
		w, at = stop, at+step
	}

	dists := []int{0, min(wantDist, 1), wantDist / 5, wantDist / 2, max(wantDist, 1) - 1, wantDist}
	slices.Sort(dists)
	got, err := r.tr.AppendAncestors(u, dists, nil)
	if err != nil {
		t.Fatalf("AppendAncestors(%d, %v): %v", u, dists, err)
	}
	for i, w, at := 0, u, 0; i < len(dists); at++ {
		for ; i < len(dists) && dists[i] == at; i++ {
			if got[i] != w {
				t.Fatalf("AppendAncestors(%d, %v) = %v: %d parent hops lead to %d", u, dists, got, at, w)
			}
		}
		if i < len(dists) {
			w = r.parentOf(t, w)
		}
	}
}

// parentOf and depthOf run once a hop and once a node: no t.Helper, which
// costs a stack walk a call.
func (r *expressRun) parentOf(t *testing.T, id tree.NodeID) tree.NodeID {
	p, err := r.tr.Parent(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submit answers req and counts the marked nodes in the subtree an internal
// change moves that came out of it marked and under another express link.
func (r *expressRun) submit(t *testing.T, req ctl.Request) ctl.Grant {
	t.Helper()
	type link struct{ id, stop tree.NodeID }
	var marked []link
	if head := movedSubtree(req); head != tree.InvalidNode {
		for id := range r.tr.Subtree(head) {
			if id != req.Node && r.d.MaskAt(id) != 0 {
				marked = append(marked, link{id, r.tr.Express(id)})
			}
		}
	}
	g := r.maskRun.submit(t, req)
	for _, l := range marked {
		if g.Outcome == ctl.Granted && r.d.MaskAt(l.id) != 0 && r.tr.Express(l.id) != l.stop {
			r.relinked++
		}
	}
	return g
}

// movedSubtree returns the head of the subtree req moves one level when it
// is granted, if it moves one.
func movedSubtree(req ctl.Request) tree.NodeID {
	switch req.Kind {
	case tree.AddInternal:
		return req.Child
	case tree.RemoveInternal:
		return req.Node
	}
	return tree.InvalidNode
}

// TestExpressClimbMatchesPlainClimb runs the centralized controller over a
// path of 480 under churn of all four kinds, with a State → RestoreDynamic
// round trip every 300 requests, until the permits run out. After every
// request it holds the filler search (host, distance, package) from the
// request's node, the deepest node and four random ones to the climb that
// tests every node, the drop-point lookup to parent hops, and, through
// maskRun, the block counts to a recount. The run must have taken express
// links, walked blocks that held a mark, and re-linked marked nodes in
// subtrees that edge splits and internal removals moved.
func TestExpressClimbMatchesPlainClimb(t *testing.T) {
	const depth, m, w = 480, 4000, 100
	for seed := int64(1); seed <= 2; seed++ {
		r := &expressRun{maskRun: newMaskRun(deepTree(t, depth), false, m, w)}
		gen := workload.NewChurn(r.tr, workload.Mix{AddLeaf: 10, RemoveLeaf: 8, AddInternal: 16, RemoveInternal: 16, Event: 50}, seed)
		gen.SetMinSize(depth * 3 / 4)
		rng := rand.New(rand.NewSource(seed))
		rejected := false
		for i := 0; i < 2*m && !rejected; i++ {
			req, ok := gen.Next()
			if !ok {
				t.Fatalf("seed %d: generator dried up at %d", seed, i)
			}
			rejected = r.submit(t, req).Outcome == ctl.Rejected
			if i%300 == 299 {
				r.roundTrip(t)
			}
			nodes := r.tr.Nodes()
			deepest := nodes[0]
			for _, id := range nodes {
				if r.depthOf(t, id) > r.depthOf(t, deepest) {
					deepest = id
				}
			}
			from := []tree.NodeID{deepest}
			if r.tr.Contains(req.Node) {
				from = append(from, req.Node)
			}
			for k := 0; k < 4; k++ {
				from = append(from, nodes[rng.Intn(len(nodes))])
			}
			for _, u := range from {
				r.compare(t, u)
			}
		}
		switch {
		case !rejected:
			t.Fatalf("seed %d: the permits never ran out", seed)
		case r.levels&^1 == 0 || r.jumps == 0 || r.dirty == 0 || r.relinked == 0 || r.restarts == 0:
			t.Fatalf("seed %d: vacuous run: levels %#b rested, %d express links taken, %d hops walked under a marked block, %d marked nodes re-linked, %d restarts",
				seed, r.levels, r.jumps, r.dirty, r.relinked, r.restarts)
		}
		t.Logf("seed %d: %d express links taken, %d hops under a marked block, %d marked nodes re-linked, tree of %d nodes and height %d",
			seed, r.jumps, r.dirty, r.relinked, r.tr.Size(), r.tr.Height())
	}
}

// TestBlockCountsFollowATreeChangedElsewhere changes the tree under live
// whiteboards without going through Grant, as the trivial tail, the baselines
// and a Restore do: an edge split applied to the tree directly moves a
// subtree holding mobile packages one level, and a Restore moves it back.
// The filler search from every node must match the plain climb after each,
// which it does only if the tree's express epoch moved and the whiteboards
// counted their blocks again.
func TestBlockCountsFollowATreeChangedElsewhere(t *testing.T) {
	const depth, wantMarked = 800, 10
	r := &expressRun{maskRun: newMaskRun(deepTree(t, depth), false, 1<<16, 1<<10)}
	// Events spread over the path, until mobile packages rest at ten nodes.
	for i, marked := 0, 0; marked < wantMarked; i++ {
		if i == 100 {
			t.Fatalf("mobile packages never rested at %d nodes at once", wantMarked)
		}
		r.submit(t, ctl.Request{Node: tree.NodeID(depth - i*101%(depth-50)), Kind: tree.None})
		marked = 0
		for id := range r.tr.All() {
			if r.d.MaskAt(id) != 0 {
				marked++
			}
		}
	}
	compareAll := func() {
		t.Helper()
		for u := range r.tr.All() {
			r.compare(t, u)
		}
	}
	compareAll()
	if r.levels&^1 == 0 || r.jumps == 0 || r.dirty == 0 {
		t.Fatalf("vacuous run: levels %#b rested, %d express links taken, %d hops walked under a marked block", r.levels, r.jumps, r.dirty)
	}
	// A static package near the top, for a request that will need no filler.
	const top = tree.NodeID(10)
	r.submit(t, ctl.Request{Node: top, Kind: tree.None})
	snap := r.tr.Snapshot()
	if _, err := r.tr.ApplyAddInternal(depth / 5); err != nil {
		t.Fatal(err)
	}
	compareAll()
	// A second foreign split, and before any filler search has looked at the
	// epoch, a granted one above every package: Grant lifts and lands that
	// subtree's marked nodes, over counts it must first have counted again.
	if _, err := r.tr.ApplyAddInternal(depth / 2); err != nil {
		t.Fatal(err)
	}
	moves := r.counters.Get(stats.CounterMoves)
	g, err := r.d.Submit(ctl.Request{Node: top, Kind: tree.AddInternal, Child: top + 1})
	if err != nil || g.Outcome != ctl.Granted || r.counters.Get(stats.CounterMoves) != moves {
		t.Fatalf("edge split below %d: %+v, %v, %d moves: want a grant off the static package there",
			top, g, err, r.counters.Get(stats.CounterMoves)-moves)
	}
	if err := r.d.CheckBlocks(); err != nil {
		t.Fatalf("after a granted edge split over a tree changed elsewhere: %v", err)
	}
	compareAll()
	if err := r.tr.Restore(snap); err != nil {
		t.Fatal(err)
	}
	compareAll()
}

func (r *expressRun) depthOf(t *testing.T, id tree.NodeID) int {
	d, err := r.tr.Depth(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// deepTrace is internal/dist's deep engine row, deep-exhaust at the
// benchmark's own size: a path of 8 192 with M = 2^18 and W = 2^12, events
// only, 2^19 requests drawn by a churn generator of seed 5 over the tree the
// engine answers them on. Scarce permits put mobile packages of several
// levels on the path, and nearly every request below its top climbs to a
// filler. The reject wave comes at half time.
func deepTrace(t *testing.T) (*tree.Tree, *ctl.Dynamic, *workload.Churn) {
	tr := deepTree(t, 8192)
	d := ctl.NewDynamic(tr, 1<<18, 1<<12, ctl.WithDynamicCounters(stats.NewCounters()))
	return tr, d, workload.NewChurn(tr, workload.EventOnlyMix(), 5)
}

// TestEngineDeepFillerTests gates the filler search of the deep row by what
// it does, not by a clock: over deepTrace, the centralized engine's climbs
// make at most 1.0 filler tests each. Exactly one level qualifies at a
// distance, and the climb stops only at nodes holding that level and skips
// every block whose row shows none of it, so every test it makes finds a
// filler and a climb that finds none makes none (0.93 a climb). A climb that
// stops at every node holding any mobile package makes 3.91.
func TestEngineDeepFillerTests(t *testing.T) {
	_, d, gen := deepTrace(t)
	climbs, tests := 0, 0
	for i := 0; i < 1<<19; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("generator dried up at %d", i)
		}
		if n, searched := d.FillerTests(req.Node); searched {
			climbs++
			tests += n
		}
		if _, err := d.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	perClimb := float64(tests) / float64(climbs)
	t.Logf("%d filler searches, %.3f filler tests each", climbs, perClimb)
	if climbs < 50_000 {
		t.Fatalf("%d filler searches: not the deep row's shape (some 79 000)", climbs)
	}
	if perClimb > 1.0 {
		t.Errorf("%.3f filler tests a search, want at most 1.0", perClimb)
	}
}

// TestWhiteboardDerivedBytes bounds what the whiteboards derive from their
// stores: the level masks, 8 B an id, and the block rows, 8 B a stop up to
// the highest that counted a mark. On deepTrace, a path, every 16th id is a
// stop and the rows may take as much as the masks, 16 B an id in all. On
// grow-mix at its own size (50 000 requests over a balanced tree of 256, half
// of them adding a leaf there, in two streams taken in turns of 128) the tree
// stays shallower than a stride, so the root is the only stop and the rows
// are its one: the masks are all there is.
func TestWhiteboardDerivedBytes(t *testing.T) {
	check := func(name string, d *ctl.Dynamic, perID float64, rowsUpTo tree.NodeID) {
		t.Helper()
		masks, rows, ids := d.DerivedBytes()
		t.Logf("%s: %d masks and %d rows, %d B, %.2f B an id", name, ids, rows/8, masks+rows, float64(masks+rows)/float64(ids))
		if float64(masks+rows) > perID*float64(ids) || rows > 8*int(rowsUpTo+1) {
			t.Errorf("%s: %d B of masks and %d B of rows for %d ids, want at most %.0f B an id and rows up to stop %d",
				name, masks, rows, ids, perID, rowsUpTo)
		}
	}

	tr, d, gen := deepTrace(t)
	for i := 0; i < 1<<19; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("generator dried up at %d", i)
		}
		if _, err := d.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	check("deep", d, 16, tree.NodeID(tr.EverExisted()))

	tr, _ = tree.New()
	if err := workload.BuildBalanced(tr, 256, 1); err != nil {
		t.Fatal(err)
	}
	ct, err := workload.NewConcurrentTrace(tr, 2, 25_000, workload.ConcurrentMix{Event: 50, AddLeaf: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d = ctl.NewDynamic(tr, 200_000, 100_000, ctl.WithDynamicCounters(stats.NewCounters()))
	for at := 0; at < 25_000; at += 128 {
		for _, c := range ct.Clients {
			for _, req := range c[at:min(at+128, len(c))] {
				if _, err := d.Submit(req); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if h := tr.Height(); h >= 16 {
		t.Fatalf("grow-mix tree of height %d: the root is not the only stop", h)
	}
	check("grow-50k", d, 8+0.01, tr.Root())
}
