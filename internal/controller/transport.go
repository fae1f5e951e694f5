package controller

import (
	"errors"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Submitter answers one request at a time. A fixed-U core is one (its
// Submit is the full Protocol GrantOrReject, the slow path of a batch), and
// so is every driver stacked on it.
type Submitter interface {
	Submit(req Request) (Grant, error)
}

// Transport is the seam between the paper's drivers and an execution model.
// The drivers own the whiteboards (they read L off them, clear them and
// grant from them on the batch fast path) and know the model only through
// this value: who moves packages between whiteboards, and what the
// broadcast/upcast phases cost that the drivers account themselves.
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
}

// centralized is the execution model of Section 3: Core moves packages directly
// and every cost is a move.
var centralized = Transport{
	Attach:  func(wb *Whiteboard) Submitter { return &Core{Whiteboard: wb} },
	Counter: stats.CounterMoves,
}

// sweep charges perEdge crossings of every edge of the current tree: 1 for
// a broadcast, 2 for a broadcast with its upcast.
func (tp Transport) sweep(counters *stats.Counters, tr *tree.Tree, perEdge int64) {
	if n := int64(tr.Size()); n > 1 {
		counters.Add(tp.Counter, perEdge*(n-1))
	}
}

// restart charges the broadcast/upcast of an iteration restart, where the
// execution model has one.
func (tp Transport) restart(counters *stats.Counters, tr *tree.Tree) {
	if tp.RestartCosts {
		tp.sweep(counters, tr, 2)
	}
}

// ErrTerminated is returned by terminating controllers after termination.
var ErrTerminated = errors.New("controller: terminated")

// Terminating wraps a no-reject fixed-U core as a terminating
// (M,W)-Controller (Observation 2.1): instead of ever rejecting, it
// terminates. At termination the number of granted permits m satisfies
// M−W ≤ m ≤ M.
type Terminating struct {
	tp         Transport
	core       Submitter
	wb         *Whiteboard
	terminated bool
}

// NewTerminating builds a terminating (m,w)-Controller over tr with the
// fixed bound u.
func NewTerminating(tr *tree.Tree, u, m, w int64, opts ...CoreOption) *Terminating {
	core := NewCore(tr, u, m, w, append(opts, WithNoRejects())...)
	return centralized.Terminating(core, core.Whiteboard)
}

// Terminating wraps core, a fixed-U core over the no-reject whiteboards wb
// that moves packages this transport's way.
func (tp Transport) Terminating(core Submitter, wb *Whiteboard) *Terminating {
	return &Terminating{tp: tp, core: core, wb: wb}
}

// Terminated reports whether the controller has terminated.
func (t *Terminating) Terminated() bool { return t.terminated }

// Granted returns the permits granted before termination.
func (t *Terminating) Granted() int64 { return t.wb.Granted() }

// Submit forwards the request unless terminated. The first request the core
// cannot fund flips the controller into the terminated state; that request
// (and all later ones) receive ErrTerminated.
func (t *Terminating) Submit(req Request) (Grant, error) {
	if t.terminated {
		return Grant{}, ErrTerminated
	}
	g, err := t.core.Submit(req)
	if err != nil {
		return Grant{}, err
	}
	if g.Outcome == WouldReject {
		t.Terminate()
		return Grant{}, ErrTerminated
	}
	return g, nil
}

// Terminate forces termination (drivers use this when an iteration ends
// for an external reason, e.g. the topological-change budget is spent). Per
// Observation 2.1 the broadcast/upcast that verifies granted events costs
// O(n), accounted at termination time.
func (t *Terminating) Terminate() {
	if t.terminated {
		return
	}
	t.terminated = true
	t.tp.sweep(t.wb.counters, t.wb.tr, 2)
}
