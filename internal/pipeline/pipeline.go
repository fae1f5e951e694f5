// Package pipeline provides a concurrent batched submission front-end for
// the (M,W)-Controller cores.
//
// The paper's controller amortizes permit distribution over many requests:
// one filler-search climb funds a whole package descent, and the static
// package it leaves behind answers later requests at the same node locally.
// The serial Submit loop cannot exploit that under concurrent traffic —
// every caller pays the full per-request protocol overhead and the callers
// serialize on the core anyway (the centralized setting is sequential by
// definition, and the distributed protocol runs one agent at a time).
//
// Pipeline turns that serialization into an advantage: requests arriving
// from many goroutines — one at a time via Submit or in runs via
// SubmitMany — are coalesced into batches and driven through the core's
// BatchSubmitter interface by whichever submitter happens to be first (a
// combining / leader–follower scheme, cf. flat combining). The batch path
// answers static-package hits from node-local state without touching the
// message transport, so one climb/descent wave and one synchronization
// handoff are amortized across many requests while the grant/reject
// semantics — and the paper's
// safety invariant (never exceed M permits) — stay exactly those of the
// serial loop.
package pipeline

import (
	"errors"
	"sync"
	"time"

	"dynctrl/internal/controller"
)

// ErrClosed is returned by Submit and SubmitMany after Close.
var ErrClosed = errors.New("pipeline: closed")

// DefaultMaxBatch bounds how many requests one leadership cycle may drive
// through the core before re-checking the queue, unless overridden with
// WithMaxBatch.
const DefaultMaxBatch = 1024

// call is one queued run and its completion signal. Single-request
// submissions ride in the call's inline buffers; SubmitMany attaches the
// caller's slices directly (the leader writes results into them, the
// channel handoff publishes the writes).
type call struct {
	done chan struct{}

	reqs    []controller.Request
	results []controller.BatchResult
	req1    [1]controller.Request
	res1    [1]controller.BatchResult
}

var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

// Stats summarizes a pipeline's batching behavior.
type Stats struct {
	// Requests is the number of requests submitted.
	Requests int64
	// Calls is the number of Submit/SubmitMany calls.
	Calls int64
	// Batches is the number of leadership cycles (queue drains) that drove
	// at least one request through the core.
	Batches int64
	// MaxBatch is the largest number of requests driven in one cycle.
	MaxBatch int
}

// Pipeline coalesces requests from many goroutines into batches and drives
// them through a BatchSubmitter. The zero value is not usable; use New.
//
// Pipeline is safe for concurrent use. The wrapped submitter is only ever
// invoked from one goroutine at a time (the current batch leader), so any
// serial-only controller core is a valid backend.
type Pipeline struct {
	sub       controller.BatchSubmitter
	maxBatch  int
	cycleHook func(calls, requests int, dur time.Duration)

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a leader retires (for Flush)
	queue   []*call
	batch   []*call // leader-owned scratch holding the current cycle's calls
	leading bool
	closed  bool

	stats Stats
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithMaxBatch bounds the number of requests one leadership cycle drives
// through the core before re-checking the queue (minimum 1; calls are
// never split, so a cycle holding one oversized SubmitMany run may exceed
// the bound by that run's length).
func WithMaxBatch(n int) Option {
	return func(p *Pipeline) {
		if n < 1 {
			n = 1
		}
		p.maxBatch = n
	}
}

// WithCycleHook installs fn to be called by the batch leader after each
// leadership cycle, with the number of calls combined, the number of
// requests driven, and the cycle's wall-clock duration (core execution
// plus submitter wakeups). Calls are serialized (only one leader runs at a
// time) and happen before the leader re-checks the queue, so tests can use
// the hook as a deterministic cycle-boundary rendezvous instead of waiting
// on timing, and services export batch-size and combining-cycle latency
// distributions from it.
func WithCycleHook(fn func(calls, requests int, dur time.Duration)) Option {
	return func(p *Pipeline) { p.cycleHook = fn }
}

// New builds a pipeline over the given batch-capable controller.
func New(sub controller.BatchSubmitter, opts ...Option) *Pipeline {
	p := &Pipeline{sub: sub, maxBatch: DefaultMaxBatch}
	for _, opt := range opts {
		opt(p)
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Submit enqueues one request and blocks until its verdict is in.
func (p *Pipeline) Submit(req controller.Request) (controller.Grant, error) {
	c := callPool.Get().(*call)
	c.req1[0] = req
	c.reqs, c.results = c.req1[:], c.res1[:0]
	defer c.release()
	if err := p.enqueue(c); err != nil {
		return controller.Grant{}, err
	}
	return c.results[0].Grant, c.results[0].Err
}

// SubmitMany enqueues a run of requests as one unit and blocks until all of
// them are answered, appending one BatchResult per request to out and
// returning the extended slice. The run is answered in order and is never
// interleaved with other submitters' requests. One synchronization handoff
// covers the whole run, so streaming clients should prefer chunked
// SubmitMany calls over per-request Submits.
func (p *Pipeline) SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	if len(reqs) == 0 {
		return out, nil
	}
	c := callPool.Get().(*call)
	c.reqs, c.results = reqs, out
	defer c.release()
	if err := p.enqueue(c); err != nil {
		return out, err
	}
	return c.results, nil
}

// release returns c to the pool without retaining caller-owned values.
func (c *call) release() {
	c.reqs, c.results = nil, nil
	callPool.Put(c)
}

// enqueue queues c, leads the queue if no leader is active, and waits for
// the run to complete.
func (p *Pipeline) enqueue(c *call) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.stats.Calls++
	p.stats.Requests += int64(len(c.reqs))
	p.queue = append(p.queue, c)
	if p.leading {
		// A leader is active and will pick this call up.
		p.mu.Unlock()
	} else {
		p.lead()
	}
	<-c.done
	return nil
}

// lead drains the queue cycle by cycle until it is empty, then retires.
// Each cycle takes whole calls until maxBatch requests are gathered, runs
// them through the core back to back, and wakes their submitters. Called
// with p.mu held; returns with p.mu released.
func (p *Pipeline) lead() {
	p.leading = true
	for len(p.queue) > 0 {
		taken, reqs := 0, 0
		for taken < len(p.queue) && (taken == 0 || reqs < p.maxBatch) {
			reqs += len(p.queue[taken].reqs)
			taken++
		}
		p.batch = append(p.batch[:0], p.queue[:taken]...)
		rest := copy(p.queue, p.queue[taken:])
		for i := rest; i < len(p.queue); i++ {
			p.queue[i] = nil // drop stale references so the pool can recycle
		}
		p.queue = p.queue[:rest]
		p.stats.Batches++
		if reqs > p.stats.MaxBatch {
			p.stats.MaxBatch = reqs
		}
		p.mu.Unlock()

		var cycleStart time.Time
		if p.cycleHook != nil {
			cycleStart = time.Now()
		}
		for _, c := range p.batch {
			c.results = p.sub.SubmitBatch(c.reqs, c.results)
			c.done <- struct{}{}
		}
		if p.cycleHook != nil {
			p.cycleHook(taken, reqs, time.Since(cycleStart))
		}

		p.mu.Lock()
	}
	p.leading = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Flush blocks until every request submitted before the call has completed
// and no batch is executing. It is a synchronization barrier, not a
// trigger: queued requests are always driven out by their batch leader.
func (p *Pipeline) Flush() {
	p.mu.Lock()
	for p.leading || len(p.queue) > 0 {
		if !p.leading {
			// Calls are queued but no leader is running (their submitters
			// are between enqueue and leader election, or a previous leader
			// retired in the gap): drive them ourselves.
			p.lead()
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close marks the pipeline closed and drains it: submissions that were
// admitted before the close (including whole SubmitMany runs already
// enqueued) are driven through the core and answered, and Close returns
// only once no batch is executing and the queue is empty. Submissions
// arriving at or after the close fail with ErrClosed — a sentinel, never a
// panic — which is what a network server's graceful drain relies on: stop
// admitting, finish everything in flight, then tear down. Close is
// idempotent and safe to call concurrently with submissions and with other
// Close calls. The backing controller is left untouched and can continue
// to serve serial Submits.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.Flush()
}

// Closed reports whether Close has been called.
func (p *Pipeline) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Stats returns a snapshot of the batching statistics.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
