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

// Dynamic extends a static labeling scheme to the controlled dynamic model
// (Section 5.4): all topological changes pass through the size-estimation
// protocol, and whenever the size estimate drifts by a factor of two from
// the size at the last rebuild, the static scheme is recomputed. Label
// sizes therefore track the *current* n rather than the historical maximum,
// at amortized message cost O(M(π,n)/n) per change on top of the
// estimator's O(log²n).
type Dynamic struct {
	tr    *tree.Tree
	tp    controller.Transport
	est   *estimator.Estimator
	build func(tr *tree.Tree) (Scheme, int64)

	scheme   Scheme
	rebuilds int
	lastN    int64
}

// NewDynamic wraps a static scheme builder: build constructs the scheme
// over the current tree and reports the message cost M(π, n) of the
// distributed construction. Its size estimator (β = 2, the natural choice
// for a doubling rule) runs over tp.
func NewDynamic(tr *tree.Tree, tp controller.Transport, build func(tr *tree.Tree) (Scheme, int64)) (*Dynamic, error) {
	est, err := estimator.New(tr, tp, 2)
	if err != nil {
		return nil, err
	}
	d := &Dynamic{tr: tr, tp: tp, est: est, build: build}
	d.rebuild()
	return d, nil
}

func (d *Dynamic) rebuild() {
	scheme, msgs := d.build(d.tr)
	d.scheme = scheme
	d.rebuilds++
	d.lastN = int64(d.tr.Size())
	d.est.Counters().Add(d.tp.Counter, msgs)
}

// Scheme returns the current static scheme (replaced on rebuilds).
func (d *Dynamic) Scheme() Scheme { return d.scheme }

// Rebuilds returns how many times the scheme was recomputed.
func (d *Dynamic) Rebuilds() int { return d.rebuilds }

// Counters returns the scheme's cost counters, the estimator's: the
// rebuilds are charged there too.
func (d *Dynamic) Counters() *stats.Counters { return d.est.Counters() }

// Estimator exposes the underlying size estimator.
func (d *Dynamic) Estimator() *estimator.Estimator { return d.est }

// Submit routes a change through the estimator and rebuilds the static
// scheme when the size has doubled or halved since the last rebuild.
func (d *Dynamic) Submit(req controller.Request) (controller.Grant, error) {
	g, err := d.est.Submit(req)
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
