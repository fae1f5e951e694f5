// Package pipeline lets many goroutines share one (M,W)-Controller.
//
// The paper's controller serves one request at a time (Section 3: the
// centralized setting is sequential by definition, and the distributed
// protocol runs one agent at a time), and the cores have no lock of their
// own. Pipeline is that lock: a mutex around a controller.BatchSubmitter.
// Submit and SubmitMany from any number of goroutines run one after the
// other, each run answered in order and never interleaved with another
// caller's, so the grant/reject semantics and the paper's safety invariant
// (never more than M permits) are exactly those of a serial loop over the
// order in which the callers got the lock.
//
// What makes a SubmitMany run cheaper per request than a loop of Submits is
// the controller's batch fast path (Whiteboard.FastGrant answers a request
// whose node holds a static package from node-local state, without
// starting the transport) and taking the lock once for the run.
// BenchmarkSubmitSerial and BenchmarkSubmitPipeline time the two on the
// same event trace.
package pipeline

import (
	"errors"
	"sync"

	"dynctrl/internal/controller"
)

// ErrClosed is returned by Submit and SubmitMany after Close.
var ErrClosed = errors.New("pipeline: closed")

// Stats counts what a pipeline has admitted.
type Stats struct {
	// Requests is the number of requests submitted.
	Requests int64
	// Calls is the number of Submit and non-empty SubmitMany calls.
	Calls int64
	// Batches equals Calls: every call is one run under the lock. It is
	// kept for bench/rungs.go, which divides Requests by it, until the
	// benchmark PR (ROADMAP, "Do first") reads Calls.
	Batches int64
}

// Pipeline serializes submissions from many goroutines onto one
// BatchSubmitter. The zero value is not usable; use New.
//
// The wrapped submitter is only ever invoked under the pipeline's lock, so
// any serial-only controller core is a valid backend, and it must not be
// driven directly while the pipeline is in use.
type Pipeline struct {
	mu       sync.Mutex
	sub      controller.BatchSubmitter
	closed   bool
	requests int64
	calls    int64
}

// New builds a pipeline over the given batch-capable controller.
func New(sub controller.BatchSubmitter) *Pipeline {
	return &Pipeline{sub: sub}
}

// Submit answers one request.
func (p *Pipeline) Submit(req controller.Request) (controller.Grant, error) {
	reqs := [1]controller.Request{req}
	var res [1]controller.BatchResult
	out, err := p.SubmitMany(reqs[:], res[:0])
	if err != nil {
		return controller.Grant{}, err
	}
	return out[0].Grant, out[0].Err
}

// SubmitMany answers a run of requests as one unit, appending one
// BatchResult per request to out and returning the extended slice. The run
// is answered in order and is never interleaved with other submitters'
// requests. The lock is taken once for the whole run, so streaming clients
// should prefer chunked SubmitMany calls over per-request Submits.
func (p *Pipeline) SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	if len(reqs) == 0 {
		return out, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock() // deferred so that a panicking submitter releases it
	if p.closed {
		return out, ErrClosed
	}
	p.calls++
	p.requests += int64(len(reqs))
	return p.sub.SubmitBatch(reqs, out), nil
}

// Flush blocks until every run admitted before the call has completed. It
// is a barrier, not a trigger: a run executes on its own caller's goroutine.
func (p *Pipeline) Flush() {
	p.mu.Lock()
	p.mu.Unlock() // taking the lock was the barrier
}

// Close marks the pipeline closed. It waits for the run in flight, so once
// Close has returned nothing executes on the controller through this
// pipeline again: every submission that gets the lock afterwards fails with
// ErrClosed (a sentinel, never a panic). Close is idempotent and safe to
// call concurrently with submissions and with other Close calls. The
// backing controller is left untouched and can go on serving serial
// Submits.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Stats returns a snapshot of the tallies.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Requests: p.requests, Calls: p.calls, Batches: p.calls}
}
