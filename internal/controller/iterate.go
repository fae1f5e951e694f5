package controller

import (
	"errors"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// ErrIterationCap is returned if the waste-halving loop fails to make
// progress, which indicates the fixed-U assumption was violated by the
// workload.
var ErrIterationCap = errors.New("controller: iteration cap exceeded (U bound violated?)")

// Iterated is the waste-halving (M,W)-Controller of Observation 3.4: it
// runs (M_i, M_i/2)-controllers in iterations, setting M_{i+1} to the
// number L of unused permits when iteration i exhausts, until L is within a
// constant factor of W; the final iteration runs an (L, W)-controller. The
// special case W = 0 appends the trivial controller that walks remaining
// permits directly from the root.
//
// Complexity: O(U·log²U·log(M/(W+1))) moves (Observation 3.4), and as many
// messages over a message-passing transport (Theorem 4.7).
type Iterated struct {
	tp       Transport
	tr       *tree.Tree
	counters *stats.Counters

	// wb is the current iteration's whiteboards and core their slow path
	// over the transport; the batch fast path grants from wb directly. A
	// restart replaces both, and the new whiteboards take over the tables of
	// the old (newWhiteboard).
	wb   *Whiteboard
	core Submitter

	st IteratedState
}

// IteratedOption configures an Iterated controller.
type IteratedOption func(*Iterated)

// WithIteratedCounters makes the controller count into c instead of a set
// of its own. It is for two controllers that are one protocol's cost, as
// majority's join and leave controllers are: summing their two Costs would
// count the messages of the runtime they share twice.
func WithIteratedCounters(c *stats.Counters) IteratedOption {
	return func(it *Iterated) { it.counters = c }
}

// AsTerminating turns the driver into a terminating controller: instead of
// ever rejecting it returns ErrTerminated (Observation 2.1 applied to the
// whole stack).
func AsTerminating() IteratedOption {
	return func(it *Iterated) { it.st.Terminating = true }
}

// NewIterated builds the waste-halving (m, w)-Controller over tr with the
// fixed node bound u, its cores moving packages this transport's way.
func (tp Transport) NewIterated(tr *tree.Tree, u, m, w int64, opts ...IteratedOption) *Iterated {
	it := &Iterated{tp: tp, tr: tr, counters: stats.NewCounters(), st: IteratedState{U: u, W: w}}
	for _, opt := range opts {
		opt(it)
	}
	it.startIteration(m)
	return it
}

func (it *Iterated) startIteration(m int64) {
	it.st.Iterations++
	it.counters.Inc(stats.CounterIterations)
	it.st.CurM = m
	w := max(m/2, 1)
	if it.st.W > 0 && m <= 2*it.st.W {
		// Final iteration: an (m, W)-controller. Rejects are issued by the
		// driver, so no core ever floods the wave itself.
		it.st.FinalPhase = true
		w = it.st.W
	}
	// What it.wb was is the iteration that ended (or nothing): its tables
	// carry over.
	it.wb = newWhiteboard(it.tr, it.st.U, m, w, it.wb, withCounters(it.counters), withNoRejects())
	it.core = it.tp.Attach(it.wb)
}

// Granted returns the total permits granted across all iterations.
func (it *Iterated) Granted() int64 { return it.st.Granted }

// Counters returns the cost counters the controller counts into.
func (it *Iterated) Counters() *stats.Counters { return it.counters }

// Submit answers one request. A terminating driver returns ErrTerminated
// once the permit budget is exhausted; otherwise exhaustion triggers a
// reject wave and rejects.
func (it *Iterated) Submit(req Request) (Grant, error) {
	if it.st.Terminated {
		return Grant{}, ErrTerminated
	}
	if it.st.RejectAll {
		it.counters.Inc(stats.CounterRejects)
		return Grant{Outcome: Rejected}, nil
	}
	for attempt := 0; attempt < 128; attempt++ {
		if it.st.TrivialPhase {
			return it.submitTrivial(req)
		}
		g, err := it.core.Submit(req)
		if err != nil {
			return Grant{}, err
		}
		if g.Outcome == Granted {
			it.st.Granted++
			return g, nil
		}
		if g.Outcome == Rejected {
			// Only a reject package already present rejects here.
			return g, nil
		}
		// WouldReject: the current iteration is exhausted.
		if it.st.FinalPhase {
			return it.exhausted()
		}
		// Collect the unused permits back to the root.
		l := it.wb.UnusedPermits()
		it.wb.clearPackages()
		it.tp.restart(it.counters, it.tr)
		if it.st.W == 0 {
			if l == 0 {
				return it.exhausted()
			}
			it.st.TrivialPhase = true
			it.st.TrivialLeft = l
			continue
		}
		it.startIteration(l)
	}
	return Grant{}, ErrIterationCap
}

// submitTrivial implements the trivial tail controller used when W = 0:
// each remaining permit walks directly from the root to the requesting
// node, costing its depth. The change is applied before any state is
// consumed: an invalid request (e.g. remove-leaf naming an internal node,
// which bypasses the core's validation here) must leave the permit budget
// and the shared counters untouched, or liveness would reject before M
// grants and the durability engine — which logs only decided requests —
// could never reconstruct the state.
func (it *Iterated) submitTrivial(req Request) (Grant, error) {
	if it.st.TrivialLeft <= 0 {
		return it.exhausted()
	}
	d, err := it.tr.Distance(req.Node, it.tr.Root())
	if err != nil {
		return Grant{}, err
	}
	newNode, err := ApplyChange(it.tr, req)
	if err != nil {
		return Grant{}, err
	}
	it.counters.Add(it.tp.Counter, int64(d))
	it.st.TrivialLeft--
	it.st.Granted++
	it.counters.Inc(stats.CounterGrants)
	if req.Kind != tree.None {
		it.counters.Inc(stats.CounterTopoChanges)
	}
	return Grant{Outcome: Granted, NewNode: newNode}, nil
}

// exhausted handles global permit exhaustion: terminating drivers terminate
// (paying the broadcast/upcast of Observation 2.1); otherwise a reject wave
// floods the tree and the request is rejected.
func (it *Iterated) exhausted() (Grant, error) {
	if it.st.Terminating {
		it.st.Terminated = true
		it.tp.Sweep(it.counters, it.tr, 2)
		return Grant{}, ErrTerminated
	}
	it.st.RejectAll = true
	it.tp.Sweep(it.counters, it.tr, 1)
	it.counters.Inc(stats.CounterRejects)
	return Grant{Outcome: Rejected}, nil
}
