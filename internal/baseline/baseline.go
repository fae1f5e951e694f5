// Package baseline implements the two comparison controllers used by the
// evaluation:
//
//   - Trivial: every permit travels from the root to the requesting node,
//     costing Θ(depth) per request — the Ω(nM) envelope the paper's
//     introduction cites.
//   - GrowOnly: a bin-hierarchy controller in the style of Afek, Awerbuch,
//     Plotkin and Saks [4], which supports only leaf insertions. Bins live
//     at fixed depths (the ruler function of the depth), each bin
//     replenishes from a supervisor bin exactly 2^i hops above it, and the
//     whole construction breaks under internal insertions/deletions — which
//     is precisely the gap the paper's controller closes.
//
// Both satisfy the (M,W) correctness conditions on the workloads they
// support and expose move counts through stats counters, so experiment E7
// (ours vs [4] on grow-only traces) and E8 (ours vs trivial) can compare
// costs directly.
package baseline

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Trivial is the naive (M,W)-Controller: all permits stay at the root and
// each granted request pays one move per hop from the root.
type Trivial struct {
	tr       *tree.Tree
	m        int64
	granted  int64
	rejected bool
	counters *stats.Counters
}

// NewTrivial builds a trivial controller with m permits at the root.
func NewTrivial(tr *tree.Tree, m int64) *Trivial {
	return &Trivial{tr: tr, m: m, counters: stats.NewCounters()}
}

// Counters returns the cost counters.
func (t *Trivial) Counters() *stats.Counters { return t.counters }

// Granted returns the number of permits granted.
func (t *Trivial) Granted() int64 { return t.granted }

// Submit implements controller.Submitter.
func (t *Trivial) Submit(req controller.Request) (controller.Grant, error) {
	if t.rejected || t.granted >= t.m {
		if !t.rejected {
			t.rejected = true
			controller.Centralized.Sweep(t.counters, t.tr, 1)
		}
		t.counters.Inc(stats.CounterRejects)
		return controller.Grant{Outcome: controller.Rejected}, nil
	}
	d, err := t.tr.Distance(req.Node, t.tr.Root())
	if err != nil {
		return controller.Grant{}, err
	}
	// Apply the change before charging it, as the trivial tail of
	// controller.Iterated does: a change the tree refuses costs no permit.
	newNode, err := controller.ApplyChange(t.tr, req)
	if err != nil {
		return controller.Grant{}, err
	}
	t.counters.Add(stats.CounterMoves, int64(d))
	t.granted++
	t.counters.Inc(stats.CounterGrants)
	if req.Kind != tree.None {
		t.counters.Inc(stats.CounterTopoChanges)
	}
	return controller.Grant{Outcome: controller.Granted, NewNode: newNode}, nil
}

// ErrUnsupportedChange is returned by GrowOnly for any topological change
// other than a leaf insertion — the restriction of the dynamic model of [4].
var ErrUnsupportedChange = fmt.Errorf("baseline: grow-only controller supports only %v", tree.AddLeaf)

// GrowOnly is the bin-hierarchy controller. Every node at depth d owns a
// bin of level ruler(d) (the exponent of the largest power of two dividing
// d; the root's bin is backed directly by the storage). A level-i bin holds
// up to 2^i·φ' permits and replenishes from its supervisor — the ancestor
// exactly 2^i hops up, whose depth has ruler ≥ i+1. A request draws from
// its own node's bin, triggering a replenishment chain toward the root when
// bins are empty.
//
// φ' is W/(2U·(⌈log₂U⌉+2)) clamped to ≥ 1, so that the permits stuck in
// bins stay below W (there are ≈U/2^{i+1} bins of level i, each holding
// ≤2^i·φ'). As in the paper, small W is handled by running the controller
// in waste-halving iterations (NewGrowOnlyIterated).
type GrowOnly struct {
	tr       *tree.Tree
	u        int64
	m        int64
	phi      int64
	maxLevel int
	storage  int64
	bins     map[tree.NodeID]int64
	granted  int64
	rejected bool
	noReject bool
	counters *stats.Counters
}

// NewGrowOnly builds a fixed-U grow-only (m, w)-controller.
func NewGrowOnly(tr *tree.Tree, u, m, w int64) *GrowOnly {
	if w < 1 {
		w = 1
	}
	logU := int64(stats.CeilLog2(int(u)) + 2)
	phi := w / (2 * u * logU)
	if phi < 1 {
		phi = 1
	}
	return &GrowOnly{
		tr:       tr,
		u:        u,
		m:        m,
		phi:      phi,
		maxLevel: stats.CeilLog2(int(u)) + 1,
		storage:  m,
		bins:     make(map[tree.NodeID]int64),
		counters: stats.NewCounters(),
	}
}

// Counters returns the cost counters.
func (g *GrowOnly) Counters() *stats.Counters { return g.counters }

// Granted returns the number of permits granted.
func (g *GrowOnly) Granted() int64 { return g.granted }

// UnusedPermits returns the permits still in the storage or stuck in bins.
func (g *GrowOnly) UnusedPermits() int64 {
	n := g.storage
	for _, b := range g.bins {
		n += b
	}
	return n
}

// ruler returns the exponent of the largest power of two dividing d (and
// the maximum level for d = 0, i.e. the root).
func (g *GrowOnly) ruler(d int) int {
	if d == 0 {
		return g.maxLevel
	}
	i := 0
	for d%2 == 0 {
		d /= 2
		i++
	}
	if i > g.maxLevel {
		i = g.maxLevel
	}
	return i
}

// capacity returns the permit capacity of a level-i bin.
func (g *GrowOnly) capacity(level int) int64 { return g.phi << uint(level) }

// Submit implements controller.Submitter for grow-only traces.
func (g *GrowOnly) Submit(req controller.Request) (controller.Grant, error) {
	if req.Kind != tree.None && req.Kind != tree.AddLeaf {
		return controller.Grant{}, ErrUnsupportedChange
	}
	if g.rejected {
		g.counters.Inc(stats.CounterRejects)
		return controller.Grant{Outcome: controller.Rejected}, nil
	}
	if !g.tr.Contains(req.Node) {
		return controller.Grant{}, fmt.Errorf("grow-only submit at %d: %w", req.Node, tree.ErrNoSuchNode)
	}
	if !g.drawPermit(req.Node) {
		if g.noReject {
			return controller.Grant{Outcome: controller.WouldReject}, nil
		}
		g.rejected = true
		controller.Centralized.Sweep(g.counters, g.tr, 1)
		g.counters.Inc(stats.CounterRejects)
		return controller.Grant{Outcome: controller.Rejected}, nil
	}
	g.granted++
	g.counters.Inc(stats.CounterGrants)
	out := controller.Grant{Outcome: controller.Granted}
	var err error
	out.NewNode, err = controller.ApplyChange(g.tr, req)
	if err != nil {
		return controller.Grant{}, err
	}
	if req.Kind != tree.None {
		g.counters.Inc(stats.CounterTopoChanges)
	}
	return out, nil
}

// drawPermit takes one permit from u's bin, replenishing the bin chain
// toward the root as needed. It reports whether a permit was obtained.
// A draw fails only when the storage and every bin on u's supervisor chain
// are dry; permits may remain stuck in off-chain bins (that is the waste W
// bounds).
func (g *GrowOnly) drawPermit(u tree.NodeID) bool {
	d, err := g.tr.Depth(u)
	if err != nil {
		return false
	}
	if d == 0 {
		// The root draws from the storage directly.
		if g.storage <= 0 {
			return false
		}
		g.storage--
		return true
	}
	if g.bins[u] == 0 {
		g.replenish(u, d)
	}
	if g.bins[u] == 0 {
		return false
	}
	g.bins[u]--
	return true
}

// replenish refills the bin at node u (depth d > 0) best-effort up to its
// level capacity, pulling from the supervisor bin 2^level hops above
// (recursively refilling it first). Each non-empty pull moves a set of
// permits across supDist edges, costing supDist moves.
func (g *GrowOnly) replenish(u tree.NodeID, d int) {
	level := g.ruler(d)
	supDist := 1 << uint(level)
	if supDist > d {
		supDist = d
	}
	sup, err := g.tr.Ancestor(u, supDist)
	if err != nil {
		return
	}
	want := g.capacity(level) - g.bins[u]
	if want <= 0 {
		return
	}
	supDepth := d - supDist
	var take int64
	if supDepth == 0 {
		// The supervisor is the root: pull straight from the storage.
		take = want
		if take > g.storage {
			take = g.storage
		}
		g.storage -= take
	} else {
		if g.bins[sup] < want {
			g.replenish(sup, supDepth)
		}
		take = want
		if take > g.bins[sup] {
			take = g.bins[sup]
		}
		g.bins[sup] -= take
	}
	if take > 0 {
		g.bins[u] += take
		g.counters.Add(stats.CounterMoves, int64(supDist))
	}
}

// GrowOnlyIterated runs GrowOnly cores in waste-halving iterations, exactly
// as [4] (and Observation 3.4) prescribe, so its total message complexity is
// O(U·log²U·log(M/(W+1))) on grow-only traces.
type GrowOnlyIterated struct {
	tr       *tree.Tree
	u        int64
	w        int64
	cur      *GrowOnly
	curM     int64
	counters *stats.Counters
	finalRun bool
	rejected bool
	granted  int64
}

// NewGrowOnlyIterated builds the iterated grow-only controller.
func NewGrowOnlyIterated(tr *tree.Tree, u, m, w int64) *GrowOnlyIterated {
	it := &GrowOnlyIterated{tr: tr, u: u, w: w, counters: stats.NewCounters()}
	it.start(m)
	return it
}

func (it *GrowOnlyIterated) start(m int64) {
	it.counters.Inc(stats.CounterIterations)
	it.curM = m
	w := m / 2
	if it.w > 0 && m <= 2*it.w {
		w = it.w
		it.finalRun = true
	}
	if w < 1 {
		w = 1
	}
	it.cur = NewGrowOnly(it.tr, it.u, m, w)
	it.cur.counters = it.counters
	it.cur.noReject = true
}

// Counters returns the cost counters.
func (it *GrowOnlyIterated) Counters() *stats.Counters { return it.counters }

// Granted returns the total permits granted.
func (it *GrowOnlyIterated) Granted() int64 { return it.granted }

// Submit implements controller.Submitter.
func (it *GrowOnlyIterated) Submit(req controller.Request) (controller.Grant, error) {
	if it.rejected {
		it.counters.Inc(stats.CounterRejects)
		return controller.Grant{Outcome: controller.Rejected}, nil
	}
	for attempt := 0; attempt < 128; attempt++ {
		g, err := it.cur.Submit(req)
		if err != nil {
			return controller.Grant{}, err
		}
		if g.Outcome == controller.Granted {
			it.granted++
			return g, nil
		}
		l := it.cur.UnusedPermits()
		if it.finalRun || l == 0 {
			it.rejected = true
			controller.Centralized.Sweep(it.counters, it.tr, 1)
			it.counters.Inc(stats.CounterRejects)
			return controller.Grant{Outcome: controller.Rejected}, nil
		}
		it.start(l)
	}
	return controller.Grant{}, controller.ErrIterationCap
}
