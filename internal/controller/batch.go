package controller

import (
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// BatchResult is the per-request answer of a batched submission: exactly the
// (Grant, error) pair the matching serial Submit call would have produced.
type BatchResult struct {
	Grant Grant
	Err   error
}

// BatchSubmitter is implemented by every controller that can answer a whole
// batch of requests in one call with serial-equivalent semantics. The
// pipeline (package pipeline) drives its batches through this interface.
type BatchSubmitter interface {
	// SubmitBatch answers the requests in order, appending one BatchResult
	// per request to out (allocating when out lacks capacity) and returning
	// the extended slice. The outcome sequence is identical to calling
	// Submit serially on the same trace.
	SubmitBatch(reqs []Request, out []BatchResult) []BatchResult
}

// RunBatch is the shared batched-submission loop behind every
// BatchSubmitter: each request first tries the local fast path and falls
// back to the full slow path otherwise. Fast grants skip the shared
// counters; flush is called with the accumulated fast-grant count before
// every slow submission (which may observe the counters) and once at the
// end, so counter values at every observation point match the serial run.
func RunBatch(reqs []Request, out []BatchResult,
	fast func(Request) (Grant, bool),
	slow func(Request) (Grant, error),
	flush func(grants int64)) []BatchResult {
	var fastGrants int64
	doFlush := func() {
		if fastGrants > 0 {
			flush(fastGrants)
			fastGrants = 0
		}
	}
	for _, req := range reqs {
		if g, ok := fast(req); ok {
			fastGrants++
			out = append(out, BatchResult{Grant: g})
			continue
		}
		doFlush()
		g, err := slow(req)
		out = append(out, BatchResult{Grant: g, Err: err})
	}
	doFlush()
	return out
}

// FastGrant answers a request entirely from the whiteboard of its node when
// the full protocol would move no package and send no message: the request
// is a non-topological event, no reject package sits at the node, and a
// static package with a permit is present (items 1–2 of Protocol
// GrantOrReject). It reports false, leaving all state untouched, in every
// other case; the caller then runs the core's Submit. The shared grant
// counter is deliberately skipped so the batch loop can flush one Add per
// run of fast grants.
func (wb *Whiteboard) FastGrant(req Request) (Grant, bool) {
	if req.Kind != tree.None {
		return Grant{}, false
	}
	// Store presence implies liveness: stores are created only for nodes in
	// the tree and removed with their node, so this replaces the Contains
	// check of the slow path.
	s := wb.lookup(req.Node)
	if s == nil || s.HasReject() {
		return Grant{}, false
	}
	serial, ok := s.TakeStaticPermit()
	if !ok {
		return Grant{}, false
	}
	wb.granted++
	return Grant{Outcome: Granted, Serial: serial}, true
}

// SubmitBatch implements BatchSubmitter over a fixed-U core: requests are
// answered in order with semantics identical to serial Submit calls. The
// local fast path answers a request whose node already holds a static
// package without starting the transport (items 1–2 of Protocol
// GrantOrReject move nothing) and amortizes the per-request overhead,
// including the shared counter updates, which are flushed once per run of
// fast grants.
func (f *Fixed) SubmitBatch(reqs []Request, out []BatchResult) []BatchResult {
	return RunBatch(reqs, out, f.FastGrant, f.core.Submit,
		func(grants int64) { f.counters.Add(stats.CounterGrants, grants) })
}

// fastGrant forwards the local fast path through the waste-halving driver:
// it applies only while the regular iterated machinery is live (not
// terminated, not rejecting, not in the trivial W = 0 tail), so the answer
// matches what Submit would have produced. Like FastGrant it leaves the
// shared counters — and Iterated.granted — to the batch flush.
func (it *Iterated) fastGrant(req Request) (Grant, bool) {
	if wb := it.fastBoard(); wb != nil {
		return wb.FastGrant(req)
	}
	return Grant{}, false
}

// fastBoard returns the current whiteboards while the driver is in its
// fast-capable state, else nil.
func (it *Iterated) fastBoard() *Whiteboard {
	if it.terminated || it.rejectAll || it.trivialPhase {
		return nil
	}
	return it.wb
}

// flushFastGrants brings the accounting a run of fast grants skipped up to
// date: the shared grant counter (read by the unknown-U M_i bookkeeping)
// and the driver's liveness tally.
func (it *Iterated) flushFastGrants(grants int64) {
	it.granted += grants
	it.counters.Add(stats.CounterGrants, grants)
}

// SubmitBatch implements BatchSubmitter over the iterated driver.
func (it *Iterated) SubmitBatch(reqs []Request, out []BatchResult) []BatchResult {
	return RunBatch(reqs, out, it.fastGrant, it.Submit, it.flushFastGrants)
}

// SubmitBatch implements BatchSubmitter over the unknown-U controller — the
// backend the public dynctrl.Pipeline drives.
//
// The driver-stack flags (termination, reject-all, trivial tail) and the
// identity of the current whiteboards only change on slow-path submissions,
// so the fast path hoists them: between slow calls it runs straight
// against the whiteboards through their concrete type, one store lookup
// and permit take per request.
func (d *Dynamic) SubmitBatch(reqs []Request, out []BatchResult) []BatchResult {
	// wb is the current whiteboards when the whole driver stack is in its
	// live fast-capable state, else nil.
	var wb *Whiteboard
	hoist := func() {
		wb = nil
		if !d.terminated && !d.rejectAll {
			wb = d.inner.fastBoard()
		}
	}
	hoist()
	return RunBatch(reqs, out,
		func(req Request) (Grant, bool) {
			if wb == nil {
				return Grant{}, false
			}
			return wb.FastGrant(req)
		},
		func(req Request) (Grant, error) {
			g, err := d.Submit(req)
			hoist()
			return g, err
		},
		// Resolve d.inner at flush time: a slow call can restart the
		// iteration and replace the inner driver mid-batch.
		func(grants int64) { d.inner.flushFastGrants(grants) })
}

var (
	_ BatchSubmitter = (*Fixed)(nil)
	_ BatchSubmitter = (*Iterated)(nil)
	_ BatchSubmitter = (*Dynamic)(nil)
)
