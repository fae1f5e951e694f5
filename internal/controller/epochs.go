package controller

import (
	"errors"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Epochs runs a terminating (M,W)-controller in iterations, the pattern
// every application of Section 5 is built on: at the start of iteration i
// the root counts the current number of nodes N_i by a broadcast/upcast, a
// terminating controller whose budget is a function of N_i admits the
// iteration's requests, and the request on which that controller terminates
// starts iteration i+1 and is answered by it. (The paper says iterations;
// the name keeps them apart from the waste-halving ones of Iterated.)
//
// An iteration's terminating controller is Observation 2.1 over one
// fixed-U core that answers WouldReject instead of rejecting. The first
// request it cannot fund terminates it, at the cost of the broadcast/upcast
// that verifies the granted events; at that point it has granted m permits
// with M−W ≤ m ≤ M.
type Epochs struct {
	tp       Transport
	tr       *tree.Tree
	counters *stats.Counters
	plan     epochPlan

	core  *Fixed
	ni    int64
	epoch int
}

// epochPlan decides iteration epoch (1-based) once its N_i is counted: the
// application re-measures or re-labels the tree, charging what that costs,
// and returns the (m, w) of the terminating controller that admits the
// iteration's requests, with the serials or the descent observer it needs.
type epochPlan func(epoch int, ni int64) (m, w int64, opts []CoreOption)

// NewEpochs starts iteration 1 over tr, so plan runs once before NewEpochs
// returns. Costs are accounted into counters, the ones the application
// charges its own phases to.
func (tp Transport) NewEpochs(tr *tree.Tree, counters *stats.Counters, plan epochPlan) *Epochs {
	e := &Epochs{tp: tp, tr: tr, counters: counters, plan: plan}
	e.start()
	return e
}

func (e *Epochs) start() {
	e.epoch++
	e.counters.Inc(stats.CounterIterations)
	e.ni = int64(e.tr.Size())
	e.tp.restart(e.counters, e.tr)
	m, w, opts := e.plan(e.epoch, e.ni)
	// 2N_i + 4 bounds the nodes ever to exist in an iteration that admits
	// at most m ≤ N_i changes.
	e.core = e.tp.NewCore(e.tr, 2*e.ni+4, m, w, append(opts, withCounters(e.counters), withNoRejects())...)
}

// Epoch returns the current iteration number (1-based).
func (e *Epochs) Epoch() int { return e.epoch }

// N returns N_i, the node count at the start of the current iteration.
func (e *Epochs) N() int64 { return e.ni }

// Submit answers one request through the current iteration's controller,
// rolling over to the next iteration when that controller terminates.
func (e *Epochs) Submit(req Request) (Grant, error) {
	for attempt := 0; attempt < 64; attempt++ {
		g, err := e.core.Submit(req)
		if err != nil || g.Outcome != WouldReject {
			return g, err
		}
		e.tp.Sweep(e.counters, e.tr, 2)
		e.start()
	}
	return Grant{}, errors.New("controller: iteration churn without progress")
}
