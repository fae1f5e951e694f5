package controller

import (
	"errors"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Policy selects the iteration rule of the unknown-U controller
// (Theorem 3.5).
type Policy int

const (
	// PolicyChangesQuarter ends iteration i after U_i/4 topological
	// changes (first part of Theorem 3.5: move complexity
	// O(n₀log²n₀·log(M/(W+1)) + Σ_j log²n_j·log(M/(W+1)))).
	PolicyChangesQuarter Policy = iota + 1
	// PolicyDoubleMaxN ends an iteration when the node count doubles
	// relative to the maximum simultaneous count seen before the
	// iteration (second part of Theorem 3.5: O(N·log²N·log(M/(W+1))),
	// N = max simultaneous nodes). As an implementation guard the
	// iteration also ends when additions alone reach half that maximum,
	// keeping the fixed-U assumption of the inner controller valid under
	// add/remove churn that leaves n flat.
	PolicyDoubleMaxN
)

// Dynamic is the (M,W)-Controller for the general case where no fixed bound
// U on the number of nodes ever to exist is known in advance (Section 3.3;
// over a message-passing transport, the paper's headline Theorem 4.9). It
// runs the waste-halving controller in iterations, re-estimating
// U_i = 2·N_i from the current node count at each iteration start.
type Dynamic struct {
	tp       Transport
	tr       *tree.Tree
	counters *stats.Counters
	inner    *Iterated
	st       DynamicState
}

// DynamicOption configures a Dynamic controller.
type DynamicOption func(*Dynamic)

// WithDynamicCounters makes the controller count into c instead of a set
// of its own; Counters is the way to read what a controller costs. It stays
// only because bench/rungs.go and dist.NewDynamic compile against it, and
// goes with them when the benchmark's ladder is rebuilt over
// Over(rt).NewDynamic (ROADMAP: "the ladder measures the engine that
// serves").
func WithDynamicCounters(c *stats.Counters) DynamicOption {
	return func(d *Dynamic) { d.counters = c }
}

// WithPolicy selects the iteration rule (default PolicyChangesQuarter).
func WithPolicy(p Policy) DynamicOption {
	return func(d *Dynamic) { d.st.Policy = p }
}

// DynamicTerminating makes the controller terminating (ErrTerminated on
// exhaustion instead of rejects).
func DynamicTerminating() DynamicOption {
	return func(d *Dynamic) { d.st.Terminating = true }
}

// NewDynamic builds the centralized unknown-U (m, w)-Controller over tr.
func NewDynamic(tr *tree.Tree, m, w int64, opts ...DynamicOption) *Dynamic {
	return Centralized.NewDynamic(tr, m, w, opts...)
}

// NewDynamic builds an unknown-U (m, w)-Controller over tr, its cores
// moving packages this transport's way.
func (tp Transport) NewDynamic(tr *tree.Tree, m, w int64, opts ...DynamicOption) *Dynamic {
	d := &Dynamic{tp: tp, tr: tr, st: DynamicState{W: w, Mi: m, Policy: PolicyChangesQuarter}}
	for _, opt := range opts {
		opt(d)
	}
	if d.counters == nil {
		d.counters = stats.NewCounters()
	}
	d.st.MaxSim = int64(tr.Size())
	d.startIteration()
	return d
}

func (d *Dynamic) startIteration() {
	d.st.Iterations++
	n := int64(d.tr.Size())
	if n > d.st.MaxSim {
		d.st.MaxSim = n
	}
	switch d.st.Policy {
	case PolicyDoubleMaxN:
		d.st.Ui = 2 * d.st.MaxSim
	default:
		d.st.Ui = 2 * n
	}
	if d.st.Ui < 4 {
		d.st.Ui = 4
	}
	d.st.Zi = 0
	d.st.Adds = 0
	// Counting N_i.
	d.tp.restart(d.counters, d.tr)
	// The new inner driver starts from the whiteboards of the one it
	// replaces, whose tables its first iteration takes over.
	var prev *Whiteboard
	if d.inner != nil {
		prev = d.inner.wb
	}
	d.inner = &Iterated{tp: d.tp, tr: d.tr, counters: d.counters, wb: prev,
		st: IteratedState{U: d.st.Ui, W: d.st.W, Terminating: true}}
	d.inner.startIteration(d.st.Mi)
	d.st.GrantedBase = d.Granted()
}

// Granted returns the total permits granted across all iterations.
func (d *Dynamic) Granted() int64 { return d.counters.Get(stats.CounterGrants) }

// Iterations returns the number of outer iterations started.
func (d *Dynamic) Iterations() int { return d.st.Iterations }

// Counters returns the cost counters the controller counts into.
func (d *Dynamic) Counters() *stats.Counters { return d.counters }

// StoreTableBytes returns the bytes of the current whiteboards' store table,
// which holds one pkgstore.Store for every id, the packages' backing arrays
// not counted.
func (d *Dynamic) StoreTableBytes() int { return d.inner.wb.stores.Bytes() }

// Terminated reports whether a terminating controller has terminated.
func (d *Dynamic) Terminated() bool { return d.st.Terminated }

// Submit answers one request, restarting the inner controller with fresh
// U_i and M_i estimates whenever the iteration policy fires.
func (d *Dynamic) Submit(req Request) (Grant, error) {
	if d.st.Terminated {
		return Grant{}, ErrTerminated
	}
	if d.st.RejectAll {
		d.counters.Inc(stats.CounterRejects)
		return Grant{Outcome: Rejected}, nil
	}
	g, err := d.inner.Submit(req)
	if errors.Is(err, ErrTerminated) {
		// Global permit exhaustion: by the liveness of each inner
		// terminating controller, at least M−W permits were granted in
		// total.
		return d.exhausted()
	}
	if err != nil {
		return Grant{}, err
	}
	if g.Outcome == Granted && req.Kind != tree.None {
		d.st.Zi++
		if req.Kind.IsAddition() {
			d.st.Adds++
		}
		if n := int64(d.tr.Size()); n > d.st.MaxSim {
			d.st.MaxSim = n
		}
		if d.iterationDone() {
			d.endIteration()
		}
	}
	return g, nil
}

func (d *Dynamic) iterationDone() bool {
	switch d.st.Policy {
	case PolicyDoubleMaxN:
		startMax := d.st.Ui / 2
		return int64(d.tr.Size()) >= 2*startMax || d.st.Adds >= max(startMax/2, 1)
	default:
		return d.st.Zi >= max(d.st.Ui/4, 1)
	}
}

// endIteration closes the books on the current iteration: Y_i permits were
// consumed, so M_{i+1} = M_i − Y_i, and the next iteration restarts the
// inner stack with a fresh U estimate.
func (d *Dynamic) endIteration() {
	yi := d.Granted() - d.st.GrantedBase
	d.st.Mi -= yi
	if d.st.Mi < 0 {
		d.st.Mi = 0
	}
	d.startIteration()
}

func (d *Dynamic) exhausted() (Grant, error) {
	if d.st.Terminating {
		d.st.Terminated = true
		return Grant{}, ErrTerminated
	}
	d.st.RejectAll = true
	d.tp.Sweep(d.counters, d.tr, 1)
	d.counters.Inc(stats.CounterRejects)
	return Grant{Outcome: Rejected}, nil
}
