package controller

import (
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// This file is the driver stack's state-capture boundary for the durability
// engine (internal/persist). The whole unknown-U stack — Dynamic → Iterated
// → Whiteboard → per-node package stores — is plain sequential state
// between submissions whatever the transport (a runtime is drained after
// every request), so a deep copy of the exported *State values plus the
// tree and the shared counters reconstructs an equivalent controller
// exactly, over the same transport or another. The drivers keep their
// variables in these values (it.st, d.st), so a capture is one copy; while
// a driver is live the nested part, Board or Inner, stays zero, since the
// whiteboards and the inner driver are objects of their own.

// IteratedState is the waste-halving driver's state.
type IteratedState struct {
	U, W        int64
	CurM        int64
	Iterations  int
	FinalPhase  bool
	Terminating bool

	// The trivial tail's state (W = 0).
	TrivialPhase bool
	TrivialLeft  int64

	Terminated bool
	RejectAll  bool
	Granted    int64

	Board WhiteboardState
}

// DynamicState is the unknown-U driver's state — the root of the controller
// snapshot the durability engine persists.
type DynamicState struct {
	W           int64
	Mi          int64
	Ui          int64
	Zi          int64 // topological changes in the current iteration
	GrantedBase int64 // permits granted before this iteration
	Iterations  int
	Terminating bool
	Terminated  bool
	RejectAll   bool

	// Policy and the two tallies only PolicyDoubleMaxN reads: additions in
	// the current iteration and the maximum simultaneous node count.
	Policy Policy
	Adds   int64
	MaxSim int64

	Inner IteratedState
}

// state captures the waste-halving driver's complete state. Must not be
// called while a submission is in flight.
func (it *Iterated) state() IteratedState {
	st := it.st
	st.Board = it.wb.state()
	return st
}

func (tp Transport) restoreIterated(tr *tree.Tree, st IteratedState, counters *stats.Counters) (*Iterated, error) {
	wb, err := restoreWhiteboard(tr, st.Board, counters)
	if err != nil {
		return nil, err
	}
	st.Board = WhiteboardState{}
	return &Iterated{tp: tp, tr: tr, counters: counters, st: st, wb: wb, core: tp.Attach(wb)}, nil
}

// State captures the unknown-U driver's complete state. Must not be called
// while a submission is in flight.
func (d *Dynamic) State() *DynamicState {
	st := d.st
	st.Inner = d.inner.state()
	return &st
}

// RestoreDynamic rebuilds an unknown-U controller from captured state over
// tr, its cores moving packages this transport's way and accounting into
// counters, which the returned controller owns (its Counters). The caller
// restores tr and counters to their captured states first; the returned
// controller then continues exactly where the captured one stopped.
// Outside this package persist.Recover is its one caller.
func (tp Transport) RestoreDynamic(tr *tree.Tree, st *DynamicState, counters *stats.Counters) (*Dynamic, error) {
	inner, err := tp.restoreIterated(tr, st.Inner, counters)
	if err != nil {
		return nil, err
	}
	d := &Dynamic{tp: tp, tr: tr, counters: counters, st: *st, inner: inner}
	d.st.Inner = IteratedState{}
	return d, nil
}
