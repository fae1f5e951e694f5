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
// exactly, over the same transport or another.

// IteratedState is the captured state of the waste-halving driver.
type IteratedState struct {
	U, W        int64
	CurM        int64
	Iterations  int
	FinalPhase  bool
	Terminating bool

	TrivialPhase bool
	TrivialLeft  int64

	Terminated bool
	RejectAll  bool
	Granted    int64

	Board WhiteboardState
}

// DynamicState is the captured state of the unknown-U driver — the root of
// the controller snapshot the durability engine persists.
type DynamicState struct {
	W           int64
	Mi          int64
	Ui          int64
	Zi          int64
	GrantedBase int64
	Iterations  int
	Terminating bool
	Terminated  bool
	RejectAll   bool

	// Policy and the two tallies only PolicyDoubleMaxN reads.
	Policy Policy
	Adds   int64
	MaxSim int64

	Inner IteratedState
}

// State captures the waste-halving driver's complete state. Must not be
// called while a submission is in flight.
func (it *Iterated) State() IteratedState {
	return IteratedState{
		U:            it.u,
		W:            it.w,
		CurM:         it.curM,
		Iterations:   it.iterations,
		FinalPhase:   it.finalPhase,
		Terminating:  it.terminating,
		TrivialPhase: it.trivialPhase,
		TrivialLeft:  it.trivialLeft,
		Terminated:   it.terminated,
		RejectAll:    it.rejectAll,
		Granted:      it.granted,
		Board:        it.wb.State(),
	}
}

func (tp Transport) restoreIterated(tr *tree.Tree, st IteratedState, counters *stats.Counters) (*Iterated, error) {
	wb, err := restoreWhiteboard(tr, st.Board, counters)
	if err != nil {
		return nil, err
	}
	return &Iterated{
		tp:           tp,
		tr:           tr,
		u:            st.U,
		w:            st.W,
		counters:     counters,
		terminating:  st.Terminating,
		curM:         st.CurM,
		iterations:   st.Iterations,
		finalPhase:   st.FinalPhase,
		trivialPhase: st.TrivialPhase,
		trivialLeft:  st.TrivialLeft,
		terminated:   st.Terminated,
		rejectAll:    st.RejectAll,
		granted:      st.Granted,
		wb:           wb,
		core:         tp.Attach(wb),
	}, nil
}

// State captures the unknown-U driver's complete state. Must not be called
// while a submission is in flight.
func (d *Dynamic) State() *DynamicState {
	return &DynamicState{
		W:           d.w,
		Mi:          d.mi,
		Ui:          d.ui,
		Zi:          d.zi,
		GrantedBase: d.grantedBase,
		Iterations:  d.iterations,
		Terminating: d.terminating,
		Terminated:  d.terminated,
		RejectAll:   d.rejectAll,
		Policy:      d.policy,
		Adds:        d.adds,
		MaxSim:      d.maxSim,
		Inner:       d.inner.State(),
	}
}

// RestoreDynamic rebuilds an unknown-U controller from captured state over
// tr, its cores moving packages this transport's way and accounting into
// counters (which may be nil). The caller restores tr and counters to their
// captured states first; the returned controller then continues exactly
// where the captured one stopped.
func (tp Transport) RestoreDynamic(tr *tree.Tree, st *DynamicState, counters *stats.Counters) (*Dynamic, error) {
	if counters == nil {
		counters = stats.NewCounters()
	}
	inner, err := tp.restoreIterated(tr, st.Inner, counters)
	if err != nil {
		return nil, err
	}
	return &Dynamic{
		tp:          tp,
		tr:          tr,
		w:           st.W,
		policy:      st.Policy,
		counters:    counters,
		terminating: st.Terminating,
		terminated:  st.Terminated,
		rejectAll:   st.RejectAll,
		inner:       inner,
		mi:          st.Mi,
		ui:          st.Ui,
		zi:          st.Zi,
		adds:        st.Adds,
		grantedBase: st.GrantedBase,
		maxSim:      st.MaxSim,
		iterations:  st.Iterations,
	}, nil
}

// RestoreDynamic rebuilds a centralized unknown-U controller from captured
// state.
func RestoreDynamic(tr *tree.Tree, st *DynamicState, counters *stats.Counters) (*Dynamic, error) {
	return Centralized.RestoreDynamic(tr, st, counters)
}
