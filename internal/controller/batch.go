package controller

import (
	"slices"

	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// BatchResult is the per-request answer of a batched submission: exactly the
// (Grant, error) pair the matching serial Submit call would have produced.
type BatchResult struct {
	Grant Grant
	Err   error
}

// BatchSubmitter is a controller that can answer a whole batch of requests
// in one call with serial-equivalent semantics. The unknown-U Dynamic, the
// one driver the daemon serves with, implements it on either transport. The
// pipeline (package pipeline) and the daemon's tenants (internal/server)
// drive their batches through this interface.
type BatchSubmitter interface {
	// SubmitBatch answers the requests in order, appending one BatchResult
	// per request to out (allocating when out lacks capacity) and returning
	// the extended slice. The outcome sequence is identical to calling
	// Submit serially on the same trace.
	SubmitBatch(reqs []Request, out []BatchResult) []BatchResult
}

// fastGrant answers a request entirely from the whiteboard of its node when
// the full protocol would move no package and send no message: the request
// is a non-topological event, no reject package sits at the node, and a
// static package with a permit is present (items 1–2 of Protocol
// GrantOrReject). It reports false, leaving all state untouched, in every
// other case; the caller then runs the core's Submit.
func (wb *Whiteboard) fastGrant(req Request) (Grant, bool) {
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
	wb.counters.Inc(stats.CounterGrants)
	return Grant{Outcome: Granted, Serial: serial}, true
}

// grow extends out by n results for the caller to write in place and
// returns it with the index of the first new one. Writing the fields of
// out[i] costs a store each; appending a BatchResult literal builds it on
// the stack and copies it over with wide loads that straddle the narrow
// stores that built it, a store-forwarding stall an answer.
func grow(out []BatchResult, n int) ([]BatchResult, int) {
	at := len(out)
	return slices.Grow(out, n)[:at+n], at
}

// fastCapable reports whether the local fast path applies: only while the
// regular iterated machinery is live (not terminated, not rejecting, not in
// the trivial W = 0 tail) is a grant off it.wb the answer Submit would have
// produced. The flags, and which whiteboards it.wb names, change only inside
// Submit.
func (it *Iterated) fastCapable() bool {
	return !it.st.Terminated && !it.st.RejectAll && !it.st.TrivialPhase
}

// fastGrant is the local fast path through the waste-halving driver.
func (it *Iterated) fastGrant(req Request) (Grant, bool) {
	g, ok := it.wb.fastGrant(req)
	if ok {
		it.st.Granted++
	}
	return g, ok
}

// fastInner returns the inner driver while the whole driver stack is in its
// live fast-capable state, else nil.
func (d *Dynamic) fastInner() *Iterated {
	if d.st.Terminated || d.st.RejectAll || !d.inner.fastCapable() {
		return nil
	}
	return d.inner
}

// SubmitBatch implements BatchSubmitter over the unknown-U controller — the
// backend the public dynctrl.Pipeline drives.
//
// The driver-stack flags (termination, reject-all, trivial tail) and the
// identity of the inner driver and its whiteboards only change on slow-path
// submissions, so the loop hoists them and reads them again after every slow
// call: between two it runs straight against the whiteboards, one store
// lookup and permit take per request.
func (d *Dynamic) SubmitBatch(reqs []Request, out []BatchResult) []BatchResult {
	out, at := grow(out, len(reqs))
	fast := d.fastInner()
	for i, req := range reqs {
		r := &out[at+i]
		if fast != nil {
			if g, ok := fast.fastGrant(req); ok {
				r.Grant, r.Err = g, nil
				continue
			}
		}
		r.Grant, r.Err = d.Submit(req)
		fast = d.fastInner()
	}
	return out
}

var _ BatchSubmitter = (*Dynamic)(nil)
