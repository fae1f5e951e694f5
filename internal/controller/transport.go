package controller

import (
	"errors"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Submitter answers one request at a time. A fixed-U core is one (its
// Submit is the full Protocol GrantOrReject, the slow path of a batch), and
// so is every driver stacked on it; above the drivers it is what the
// workload runners, the oracle, WAL replay, the wire client, the baselines
// and the Section 5 applications drive or are.
type Submitter interface {
	Submit(req Request) (Grant, error)
}

// Transport is the seam between the paper's drivers and an execution model.
// The drivers own the whiteboards (they read L off them, clear them and
// grant from them on the batch fast path) and know the model only through
// this value: who moves packages between whiteboards, and what the
// broadcast/upcast phases cost that the drivers account themselves.
// Above the drivers an engine is only a Transport, Centralized or
// dist.Over(rt): the Section 5 applications take one and import neither.
type Transport struct {
	// Attach returns the fixed-U core that runs Protocol GrantOrReject over
	// wb, moving packages the transport's way.
	Attach func(wb *Whiteboard) Submitter
	// Counter names the counter a driver-level broadcast or upcast over the
	// tree is charged to: the reject wave, termination detection, the walk
	// of a trivial-tail permit.
	Counter stats.Counter
	// RestartCosts says whether restarting an iteration costs a
	// broadcast/upcast. Collecting the unused permits and counting N_i is
	// a direct computation centrally and 2(n−1) messages distributed
	// (Appendix A).
	RestartCosts bool
	// Delivered reports what the transport carried itself and no counter
	// holds: the messages a runtime delivered. Nil when every cost is a
	// counter.
	Delivered func() int64
}

// Centralized is the execution model of Section 3: Core moves packages
// directly and every cost is a move.
var Centralized = Transport{
	Attach:  func(wb *Whiteboard) Submitter { return &Core{Whiteboard: wb} },
	Counter: stats.CounterMoves,
}

// Sweep charges perEdge crossings of every edge of the current tree: 1 for
// a broadcast, 2 for a broadcast with its upcast or for a DFS traversal.
func (tp Transport) Sweep(counters *stats.Counters, tr *tree.Tree, perEdge int64) {
	if n := int64(tr.Size()); n > 1 {
		counters.Add(tp.Counter, perEdge*(n-1))
	}
}

// restart charges the broadcast/upcast of an iteration restart, where the
// execution model has one.
func (tp Transport) restart(counters *stats.Counters, tr *tree.Tree) {
	if tp.RestartCosts {
		tp.Sweep(counters, tr, 2)
	}
}

// Cost returns what running over this transport has cost so far, in its own
// measure: the moves or control messages charged to counters plus whatever
// the transport delivered itself.
func (tp Transport) Cost(counters *stats.Counters) int64 {
	n := counters.Get(tp.Counter)
	if tp.Delivered != nil {
		n += tp.Delivered()
	}
	return n
}

// Fixed is a fixed-U (M,W)-controller over some transport: the whiteboards,
// which answer alone whatever needs no package moved, and the transport's
// core for the rest.
type Fixed struct {
	*Whiteboard
	core Submitter
}

// NewCore builds the fixed-U (m, w)-controller over tr assuming at most u
// nodes ever exist, its packages moving this transport's way.
func (tp Transport) NewCore(tr *tree.Tree, u, m, w int64, opts ...CoreOption) *Fixed {
	wb := newWhiteboard(tr, u, m, w, nil, opts...)
	return &Fixed{Whiteboard: wb, core: tp.Attach(wb)}
}

// Submit runs Protocol GrantOrReject for one request.
func (f *Fixed) Submit(req Request) (Grant, error) { return f.core.Submit(req) }

// ErrTerminated is returned by terminating controllers after termination.
var ErrTerminated = errors.New("controller: terminated")
