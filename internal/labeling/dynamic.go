package labeling

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/estimator"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Scheme abstracts a static labeling scheme for the dynamic wrapper.
type Scheme interface {
	// MaxBits returns the largest label size in bits.
	MaxBits() int
}

// Builder constructs a static scheme over the current tree and reports the
// message cost M(π, n) of the distributed construction.
type Builder func(tr *tree.Tree) (Scheme, int64)

// Dynamic extends a static labeling scheme to the controlled dynamic model
// (Section 5.4): all topological changes pass through the size-estimation
// protocol, and whenever the size estimate drifts by a factor of two from
// the size at the last rebuild, the static scheme is recomputed. Label
// sizes therefore track the *current* n rather than the historical maximum,
// at amortized message cost O(M(π,n)/n) per change on top of the
// estimator's O(log²n).
type Dynamic struct {
	tr       *tree.Tree
	tp       controller.Transport
	est      *estimator.Estimator
	build    Builder
	counters *stats.Counters

	scheme   Scheme
	rebuilds int
	lastN    int64
}

// NewDynamic wraps a static scheme builder; its size estimator (β = 2, the
// natural choice for a doubling rule) runs over tp.
func NewDynamic(tr *tree.Tree, tp controller.Transport, build Builder, counters *stats.Counters) (*Dynamic, error) {
	if counters == nil {
		counters = stats.NewCounters()
	}
	est, err := estimator.New(tr, tp, 2, estimator.WithCounters(counters))
	if err != nil {
		return nil, err
	}
	d := &Dynamic{tr: tr, tp: tp, est: est, build: build, counters: counters}
	d.rebuild()
	return d, nil
}

func (d *Dynamic) rebuild() {
	scheme, msgs := d.build(d.tr)
	d.scheme = scheme
	d.rebuilds++
	d.lastN = int64(d.tr.Size())
	d.counters.Add(d.tp.Counter, msgs)
}

// Scheme returns the current static scheme (replaced on rebuilds).
func (d *Dynamic) Scheme() Scheme { return d.scheme }

// Rebuilds returns how many times the scheme was recomputed.
func (d *Dynamic) Rebuilds() int { return d.rebuilds }

// Counters returns the shared counters.
func (d *Dynamic) Counters() *stats.Counters { return d.counters }

// Estimator exposes the underlying size estimator.
func (d *Dynamic) Estimator() *estimator.Estimator { return d.est }

// RequestChange routes a change through the estimator and rebuilds the
// static scheme when the size has doubled or halved since the last rebuild.
func (d *Dynamic) RequestChange(req controller.Request) (controller.Grant, error) {
	g, err := d.est.RequestChange(req)
	if err != nil {
		return g, err
	}
	est, err := d.est.Estimate(d.tr.Root())
	if err != nil {
		return g, fmt.Errorf("labeling: %w", err)
	}
	if est >= 2*d.lastN || 2*est <= d.lastN {
		d.rebuild()
	}
	return g, nil
}

// Submit implements controller.Submitter.
func (d *Dynamic) Submit(req controller.Request) (controller.Grant, error) {
	return d.RequestChange(req)
}

// CheckLabelSize verifies the scheme's label size is at most
// factor·f(current n) bits, where f is supplied by the caller (e.g.
// 2·log₂n for ancestry labels).
func (d *Dynamic) CheckLabelSize(f func(n int) int, factor float64) error {
	n := d.tr.Size()
	bound := int(factor * float64(f(n)))
	if got := d.scheme.MaxBits(); got > bound {
		return fmt.Errorf("labeling: max label %d bits exceeds %d (n=%d)", got, bound, n)
	}
	return nil
}
