// Package estimator implements the size-estimation protocol of Section 5.1
// and the subtree estimator of Section 5.3.
//
// The protocol runs in iterations. At the start of iteration i the root
// counts the current number of nodes N_i by a broadcast/upcast and
// broadcasts it; every node uses N_i as its estimate for the whole
// iteration. With α = 1 − 1/β, a terminating (αN_i, αN_i/2)-Controller
// admits the iteration's topological changes, so the true size n stays in
// [N_i − αN_i, N_i + αN_i] ⊆ [N_i/β, βN_i]: the estimate is a
// β-approximation at all times. The controller terminates after Ω(N_i)
// changes, so the amortized message cost per change is O(log²n)
// (Theorem 5.1).
package estimator

import (
	"errors"
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// errBadBeta is returned when the approximation parameter is not > 1.
var errBadBeta = errors.New("estimator: beta must be greater than 1")

// Estimator maintains, at every node, a β-approximation of the number of
// nodes in the dynamically changing tree. All topological changes must be
// requested through Submit. It has no lock: like the tree it reads, it
// belongs to whoever drives it (package tree, Ownership).
type Estimator struct {
	tr       *tree.Tree
	beta     float64
	counters *stats.Counters

	// epochs runs the iterations; its N_i is every node's estimate.
	epochs *controller.Epochs

	// Subtree-estimator state (Section 5.3): per-node ω₀ of the current
	// iteration and the permits seen passing down through each node.
	subtree bool
	omega0  map[tree.NodeID]int64
	passed  map[tree.NodeID]int64
}

// Option configures an Estimator.
type Option func(*Estimator)

// WithSubtreeEstimates enables the subtree estimator: every node v also
// maintains ω̃(v), a β-approximation of its super-weight (the number of
// descendants that existed at any point since the iteration started).
func WithSubtreeEstimates() Option {
	return func(e *Estimator) { e.subtree = true }
}

// New builds a size estimator over tr with approximation parameter beta,
// its controllers moving packages tp's way.
func New(tr *tree.Tree, tp controller.Transport, beta float64, opts ...Option) (*Estimator, error) {
	if beta <= 1 {
		return nil, errBadBeta
	}
	e := &Estimator{tr: tr, beta: beta, counters: stats.NewCounters()}
	for _, opt := range opts {
		opt(e)
	}
	e.epochs = tp.NewEpochs(tr, e.counters, e.plan)
	return e, nil
}

// plan is the estimator's controller.Plan: a terminating
// (αN_i, αN_i/2)-controller, the budget ⌊αN_i⌋ clamped to ≥ 1 so tiny trees
// still make progress (granting one change on n=1 keeps n ≤ 2 ≤ βN for
// β ≥ 2; for 1 < β < 2 the clamp only triggers when αN < 1, i.e. N < 1/α,
// where a single change still respects the bound because N ≥ 1). The
// broadcast/upcast that counted N_i also broadcasts it, and in the subtree
// variant computes ω₀(v) in the same upcast.
func (e *Estimator) plan(_ int, ni int64) (m, w int64, opts []controller.CoreOption) {
	alpha := 1 - 1/e.beta
	m = max(int64(alpha*float64(ni)), 1)
	if e.subtree {
		e.omega0 = make(map[tree.NodeID]int64, ni)
		e.passed = make(map[tree.NodeID]int64, ni)
		for id, iv := range e.tr.Intervals() {
			if iv[0] > 0 {
				e.omega0[tree.NodeID(id)] = int64(iv[1] - iv[0] + 1)
			}
		}
		opts = append(opts, controller.WithDescentObserver(func(size int64, enters tree.NodeID) {
			e.passed[enters] += size
		}))
	}
	return m, m / 2, opts
}

// Iteration returns the current iteration number (1-based).
func (e *Estimator) Iteration() int {
	return e.epochs.Epoch()
}

// Counters returns the estimator's cost counters.
func (e *Estimator) Counters() *stats.Counters { return e.counters }

// Tree returns the tree the estimator runs over.
func (e *Estimator) Tree() *tree.Tree { return e.tr }

// Estimate returns the node's current estimate ñ(v) of the network size.
func (e *Estimator) Estimate(v tree.NodeID) (int64, error) {
	if !e.tr.Contains(v) {
		return 0, fmt.Errorf("estimate at %d: %w", v, tree.ErrNoSuchNode)
	}
	return e.epochs.N(), nil
}

// Beta returns the approximation parameter.
func (e *Estimator) Beta() float64 { return e.beta }

// SubtreeEstimate returns ω̃(v), the node's estimate of its super-weight.
// WithSubtreeEstimates must have been enabled.
func (e *Estimator) SubtreeEstimate(v tree.NodeID) (int64, error) {
	if !e.subtree {
		return 0, errors.New("estimator: subtree estimates not enabled")
	}
	if !e.tr.Contains(v) {
		return 0, fmt.Errorf("subtree estimate at %d: %w", v, tree.ErrNoSuchNode)
	}
	base, ok := e.omega0[v]
	if !ok {
		// The node joined mid-iteration: it counts itself (its parent
		// tells it ω₀ = 1 on arrival).
		base = 1
	}
	return base + e.passed[v], nil
}

// Submit requests a topological change (or a non-topological event)
// through the current iteration's controller, rolling over to the next
// iteration when the controller terminates.
func (e *Estimator) Submit(req controller.Request) (controller.Grant, error) {
	return e.epochs.Submit(req)
}

// CheckApproximation verifies the β-approximation invariant at every node
// and returns the first violation.
func (e *Estimator) CheckApproximation() error {
	n := float64(e.tr.Size())
	est := float64(e.epochs.N())
	if est < n/e.beta-1e-9 || est > e.beta*n+1e-9 {
		return fmt.Errorf("estimate %v outside [n/β, βn] = [%v, %v] (n=%v)",
			est, n/e.beta, e.beta*n, n)
	}
	return nil
}
