package controller_test

import (
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// maskRun is one unknown-U controller, centralized or message-passing, whose
// level masks are checked against its stores after every request.
type maskRun struct {
	distributed bool
	tr          *tree.Tree
	d           *ctl.Dynamic
	levels      uint64 // union of every mask seen
	resting     bool   // some mobile package rested in a store after the last request
	// handoffs counts graceful deletions of a node holding a mobile package
	// its own request cannot consume (level 1 and up): it moves to the parent.
	handoffs int
	restarts int // requests that left other whiteboards than they found
}

// transport returns the run's execution model; the message-passing one
// over a fresh runtime.
func (r *maskRun) transport(seed int64) ctl.Transport {
	if r.distributed {
		return dist.Over(sim.NewDeterministic(seed))
	}
	return ctl.Centralized
}

func newMaskRun(tr *tree.Tree, distributed bool, m, w int64) *maskRun {
	r := &maskRun{distributed: distributed, tr: tr}
	r.d = r.transport(7).NewDynamic(tr, m, w)
	return r
}

// submit answers one request and checks the masks of the whiteboards it left.
func (r *maskRun) submit(t testing.TB, req ctl.Request) ctl.Grant {
	t.Helper()
	if req.Kind.IsRemoval() && r.d.MaskAt(req.Node)&^1 != 0 {
		r.handoffs++
	}
	board := r.d.Board()
	g, err := r.d.Submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	if r.d.Board() != board {
		// The request restarted the iteration: the whiteboards it found
		// handed their tables on.
		r.restarts++
		if board.HoldsTables() {
			t.Fatalf("submit %+v: the whiteboards the restart discarded keep their tables", req)
		}
	}
	r.check(t)
	return g
}

func (r *maskRun) check(t testing.TB) {
	t.Helper()
	levels, err := r.d.CheckMasks()
	if err != nil {
		t.Fatalf("level masks out of step with the stores: %v", err)
	}
	r.levels |= levels
	r.resting = levels != 0
}

// checkRecycled holds the whiteboards a restart at this point would build
// over the current ones' tables to a fresh start.
func (r *maskRun) checkRecycled(t testing.TB) {
	t.Helper()
	if err := r.d.CheckRecycled(); err != nil {
		t.Fatalf("whiteboards built over recycled tables: %v", err)
	}
}

// roundTrip continues on a controller rebuilt from the captured state over
// the same tree: the masks are derived state, so the rebuild must derive them.
func (r *maskRun) roundTrip(t testing.TB) {
	t.Helper()
	d, err := r.transport(11).RestoreDynamic(r.tr, r.d.State(), r.d.Counters())
	if err != nil {
		t.Fatalf("State → RestoreDynamic: %v", err)
	}
	r.d = d
	r.check(t)
}

func deepTree(t testing.TB, n int) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPropertyLevelMasks drives seeded traces over a path deep enough for
// mobile packages of three levels to rest at their drop points, through
// iteration restarts, graceful deletions of package-holding nodes, the
// exhaustion of the permits and State → RestoreDynamic round trips, over
// both transports, and holds mask[id] == OR(1 << level) over the mobile
// packages of store id, for every id, after every request; a restart must
// hand the tables on (submit), and whiteboards built over used tables must
// equal ones built over none (checkRecycled). The churn leans
// on internal additions and removals, which keep the tree a deep path and
// delete the nodes packages rest at. The W = 0 case is the one in which
// cleared whiteboards stay referenced (the trivial tail runs beside them), so
// it is what pins ClearPackages.
func TestPropertyLevelMasks(t *testing.T) {
	const depth, m = 400, 4000
	for _, tc := range []struct {
		name    string
		w       int64
		mix     workload.Mix
		minSize int
	}{
		{name: "churn", w: 100, minSize: 240,
			mix: workload.Mix{AddLeaf: 5, RemoveLeaf: 5, AddInternal: 25, RemoveInternal: 25, Event: 40}},
		{name: "w0-tail", w: 0, mix: workload.EventOnlyMix()},
	} {
		for _, distributed := range []bool{false, true} {
			name := tc.name + "/centralized"
			if distributed {
				name = tc.name + "/distributed"
			}
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					r := newMaskRun(deepTree(t, depth), distributed, m, tc.w)
					gen := workload.NewChurn(r.tr, tc.mix, seed)
					gen.SetMinSize(tc.minSize)
					rejected, collectedResting := false, false
					for i := 0; i < 2*m && !rejected; i++ {
						req, ok := gen.Next()
						if !ok {
							t.Fatalf("seed %d: generator dried up at %d", seed, i)
						}
						resting, tail := r.resting, r.d.InTrivialTail()
						restarts := r.restarts
						rejected = r.submit(t, req).Outcome == ctl.Rejected
						if !tail && r.d.InTrivialTail() {
							collectedResting = resting
						}
						if i%211 == 210 {
							r.roundTrip(t)
						}
						// What a restart would recycle, sampled, and always
						// where one has just happened: whiteboards that are
						// themselves built over recycled tables.
						if i%16 == 0 || r.restarts != restarts {
							r.checkRecycled(t)
						}
					}
					switch {
					case !rejected:
						t.Fatalf("seed %d: the permits never ran out", seed)
					case r.levels&^1 == 0:
						t.Fatalf("seed %d: vacuous run: no mobile package above level 0 ever rested in a store (levels %#b)", seed, r.levels)
					case tc.w > 0 && (r.d.Iterations() < 3 || r.restarts < 3 || r.handoffs == 0):
						t.Fatalf("seed %d: vacuous run: %d iterations, %d restarts seen, %d package-holding nodes deleted",
							seed, r.d.Iterations(), r.restarts, r.handoffs)
					case tc.w == 0 && !collectedResting:
						t.Fatalf("seed %d: vacuous run: no mobile package rested when the permits were collected", seed)
					}
				}
			})
		}
	}
}

// TestStoreTableGrowsWithinIteration grows the store table through two chunk
// boundaries inside one iteration, with no restart in between to rebuild it:
// leaves join a path of 2 100 (the table's fifth chunk ends at id 2 559, the
// iteration at 1 050 changes) while events at its deep end keep mobile
// packages resting along it, so stores that existed before a growth step are
// read and written after it. The tree is validated and the masks, and with
// them which ids hold a store, are checked after every request.
func TestStoreTableGrowsWithinIteration(t *testing.T) {
	const n0, chunk = 2100, 512
	r := newMaskRun(deepTree(t, n0), false, 1<<20, 1<<19)
	tip := tree.NodeID(n0)
	for i := 0; r.tr.EverExisted() < 6*chunk+2; i++ {
		req := ctl.Request{Node: tip - tree.NodeID(i*37%n0), Kind: tree.AddLeaf}
		if i%3 == 2 {
			req.Kind = tree.None
		}
		if g := r.submit(t, req); g.Outcome != ctl.Granted {
			t.Fatalf("request %d: %+v answered %v", i, req, g.Outcome)
		}
		if err := r.tr.Validate(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r.d.Iterations() != 1 || r.d.InnerIterations() != 1 {
			t.Fatalf("request %d restarted the iteration (%d outer, %d inner) before the table had crossed two chunk boundaries at %d ids",
				i, r.d.Iterations(), r.d.InnerIterations(), r.tr.EverExisted())
		}
	}
	if r.levels&^1 == 0 {
		t.Fatalf("vacuous run: no mobile package above level 0 ever rested in a store (levels %#b)", r.levels)
	}
}

// FuzzWhiteboardMask lets the fuzzer write the trace: the first byte picks
// the transport, then two bytes a request (a kind and a node selector) or a
// State → RestoreDynamic round trip, over a path of 96 with few permits per
// node so that packages split, rest and are collected within a short input.
// The masks, and what a restart would make of the tables, are checked after
// every step.
func FuzzWhiteboardMask(f *testing.F) {
	f.Add([]byte("\x00" + "0_0_0_0_0_0_0_0_0_0_0_0_0_0_0_0_"))
	f.Add([]byte("\x01" + "0\xff0\xf03\xe00\xff5\x000\xfe3\xd00\xff1\x102\x204\x00"))
	f.Add([]byte{0, 0, 255, 3, 250, 0, 255, 3, 240, 5, 0, 0, 255, 0, 200, 3, 230, 0, 255})
	f.Add(deepMaskSeed(0))
	f.Add(deepMaskSeed(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := newMaskRun(deepTree(t, 96), data[0]%2 == 1, 512, 64)
		for i := 1; i+1 < len(data) && i < 600; i += 2 {
			nodes := r.tr.Nodes()
			at := nodes[int(data[i+1])*len(nodes)/256]
			req := ctl.Request{Node: at}
			switch data[i] % 6 {
			case 0:
				req.Kind = tree.None
			case 1:
				req.Kind = tree.AddLeaf
			case 2:
				p, err := r.tr.Parent(at)
				if err != nil || p == tree.InvalidNode {
					continue
				}
				req = ctl.Request{Node: p, Kind: tree.AddInternal, Child: at}
			case 3:
				if at == r.tr.Root() || r.tr.IsLeaf(at) {
					continue
				}
				req.Kind = tree.RemoveInternal
			case 4:
				if at == r.tr.Root() || !r.tr.IsLeaf(at) {
					continue
				}
				req.Kind = tree.RemoveLeaf
			case 5:
				r.roundTrip(t)
				continue
			}
			r.submit(t, req)
			r.checkRecycled(t)
		}
	})
}

// deepMaskSeed is a FuzzWhiteboardMask input over the given transport that
// works where the tree's express links are: it grows the path by forty nodes
// at its tip, more than two strides of the links, rests mobile packages along
// it with events at the new tip, and then splits edges and deletes internal
// nodes in the middle of the path, between events that climb past them and a
// round trip, so that marked nodes change blocks under every kind of change.
func deepMaskSeed(transport byte) []byte {
	data := []byte{transport}
	for i := 0; i < 40; i++ {
		data = append(data, 1, 255) // a leaf under the tip
	}
	for round := byte(0); round < 6; round++ {
		mid := 96 + 8*round // a selector: the node 3/8 down the path and on
		data = append(data,
			0, 255, 0, 255, 0, 250, // events at and near the tip
			2, mid, 2, mid+1, 0, 255, // two edges split, a climb past them
			3, mid, 0, 252, 3, mid-40, // internal nodes deleted, a climb
			2, mid-30, 0, 255)
		if round%2 == 1 {
			data = append(data, 5, 0) // State → RestoreDynamic
		}
	}
	return data
}
