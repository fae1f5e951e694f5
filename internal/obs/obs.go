// Package obs is dynctrld's low-overhead observability layer: stage-level
// request tracing, server-side latency digests, structured-logging setup
// and Prometheus exposition helpers.
//
// The daemon serves batches, so the unit of observation is the read batch:
// every coalesced run of Submit frames a connection takes off its socket
// becomes one BatchTrace with a per-stage duration breakdown (frame
// decode, wait for the tenant's lock, controller execute, WAL append→durable,
// Results write) plus controller-work tags (batch size, verdicts,
// controller moves). A Tracer is everything one tenant observes, as
// plain values behind one mutex: a fixed-size ring of the most recent
// traces, the slowest few kept in order, and one internal/hdr log-linear
// histogram a row (the stages, the whole batch, the hold of the tenant's
// lock, the WAL fsync wave). /tracez shows individual slow batches and
// /metricsz per-row quantiles out of bounded memory, and what a scrape can
// see is what that one lock ordered.
//
// The record path is one critical section a *batch* (not a request): the
// connection builds the trace on its stack, Record copies it in and
// allocates nothing (TestRecordAllocatesNothing). CI's perf-smoke gates
// bench/'s obs.overhead_ratio (untraced / traced throughput, -trace-ring -1
// against defaults) on events-batch at <= 1.29.
package obs

import (
	"sync"
	"time"

	"dynctrl/internal/hdr"
)

// Stage identifies one segment of a batch's server-side lifecycle.
type Stage uint8

// The stages of one read batch, in serving order. StageTotal is the
// whole-batch wall time (first frame decoded to Results flushed) and is
// tracked as its own histogram row, not stored in BatchTrace.Stages.
const (
	// StageDecode is frame decode and read-batch assembly: from the first
	// frame of the batch arriving to the last buffered frame decoded.
	StageDecode Stage = iota
	// StageQueue is the wait for the tenant's lock: from the run being
	// ready until the controller starts on it (other connections' runs, a
	// scrape or a checkpoint capture hold the lock meanwhile).
	StageQueue
	// StageExecute is the controller executing exactly this run's requests.
	StageExecute
	// StageWAL is durability: WAL append plus the group-commit fsync wait
	// (zero when the daemon runs without a WAL).
	StageWAL
	// StageWrite is encoding and flushing the Results frames.
	StageWrite
	// StageTotal is the whole batch, end to end.
	StageTotal
)

// NumStages counts the histogram rows (the five stages plus total).
const NumStages = int(StageTotal) + 1

var stageNames = [NumStages]string{"decode", "queue", "execute", "wal", "write", "total"}

// String returns the stage's metric label value.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// BatchTrace is one recorded read batch: identity, per-stage durations and
// the controller-work tags that explain where the time went.
type BatchTrace struct {
	// ID is the tenant-scoped trace ID: Record numbers the traces from 1.
	ID uint64
	// Start is the wall-clock instant the batch's first frame arrived.
	Start time.Time
	// Total is the end-to-end batch duration.
	Total time.Duration
	// Stages holds the per-stage durations (StageTotal lives in Total).
	Stages [StageTotal]time.Duration
	// Hold is how long the batch's run held the tenant's lock: execute plus
	// WAL append. It feeds its own histogram row, not the trace tables.
	Hold time.Duration

	// Frames and Requests size the batch: wire frames coalesced and
	// requests decoded out of them.
	Frames   int
	Requests int
	// Grants, Rejects and Errors are the batch's verdict tallies.
	Grants  int64
	Rejects int64
	Errors  int64
	// Moves counts the controller moves (package descents, graceful
	// deletions, wave and termination sweeps: Section 3's cost measure)
	// this run triggered.
	Moves int64
	// Conn is the remote address of the connection that read the batch.
	Conn string
}

// LatencyStats is a point-in-time digest of one duration distribution.
type LatencyStats struct {
	Count          int64
	Sum            time.Duration
	Min, Max       time.Duration
	P50, P99, P999 time.Duration
}

// StageStats is LatencyStats labeled with its stage.
type StageStats struct {
	Stage string
	LatencyStats
}

// Digest is everything a Tracer has counted, read in one critical section.
type Digest struct {
	// Recorded is the number of traces recorded, which is the last trace ID.
	Recorded uint64
	// Stages is the per-stage digest in stage order (decode..write, total).
	Stages []StageStats
	// Hold digests BatchTrace.Hold, Fsync what RecordFsync was given.
	Hold, Fsync LatencyStats
}

// The histogram rows: one a stage, then the lock hold and the fsync wave.
const (
	rowHold = NumStages + iota
	rowFsync
	numRows
)

// Tracer is one tenant's observations: traces and duration histograms as
// plain values under mu. All methods are safe for concurrent use and are
// no-ops on a nil receiver, so a disabled tracer is simply nil.
type Tracer struct {
	mu   sync.Mutex
	n    uint64       // traces recorded; the last trace's ID
	ring []BatchTrace // trace k sits at (k-1) mod len, a power of two
	slow []BatchTrace // the slowest cap(slow) traces, slowest first
	rows [numRows]*hdr.Histogram
}

// DefaultRing is the ring size when NewTracer is given ring <= 0.
const DefaultRing = 256

// MaxRing is the largest ring a tracer keeps: 65 536 traces, about 10 MiB
// at 160 B a trace. NewTracer clamps a larger request to it, and the daemon
// refuses one at boot.
const MaxRing = 1 << 16

// DefaultSlow is the slowest-N capacity when NewTracer is given slow <= 0.
const DefaultSlow = 32

// NewTracer builds a tracer with a most-recent ring of (at least) ring
// traces — rounded up to a power of two, at most MaxRing — and a slowest-N
// capacity of slow.
func NewTracer(ring, slow int) *Tracer {
	if ring <= 0 {
		ring = DefaultRing
	}
	ring = min(ring, MaxRing)
	size := 1
	for size < ring {
		size <<= 1
	}
	if slow <= 0 {
		slow = DefaultSlow
	}
	t := &Tracer{ring: make([]BatchTrace, size), slow: make([]BatchTrace, 0, slow)}
	for i := range t.rows {
		t.rows[i] = hdr.New()
	}
	return t
}

// Recorded returns how many traces have been recorded, which is the ID of
// the last one (0 on nil).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// RingSize returns the ring capacity (0 on nil).
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Record copies one finished trace in and returns the ID it was given (0 on
// nil): into the ring, into the slowest-N when it beats the fastest trace
// kept there, and into the stage, total and hold histograms. bt.ID is not
// read and bt is not kept.
func (t *Tracer) Record(bt *BatchTrace) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := &t.ring[t.n&uint64(len(t.ring)-1)]
	t.n++
	*slot = *bt
	slot.ID = t.n

	t.admit(slot)
	for s := StageDecode; s < StageTotal; s++ {
		t.rows[s].Record(int64(bt.Stages[s]))
	}
	t.rows[StageTotal].Record(int64(bt.Total))
	t.rows[rowHold].Record(int64(bt.Hold))
	return t.n
}

// admit keeps the slowest-N sorted, slowest first: a trace that beats the
// last one kept (the minimum) replaces it, or takes a free slot, and moves up
// past every faster trace. Callers hold the tracer's lock.
func (t *Tracer) admit(bt *BatchTrace) {
	i := len(t.slow)
	switch {
	case i < cap(t.slow):
		t.slow = append(t.slow, *bt)
	case bt.Total > t.slow[i-1].Total:
		i--
		t.slow[i] = *bt
	default:
		return
	}
	for ; i > 0 && t.slow[i].Total > t.slow[i-1].Total; i-- {
		t.slow[i], t.slow[i-1] = t.slow[i-1], t.slow[i]
	}
}

// RecordFsync adds one WAL group-commit fsync wave's duration.
func (t *Tracer) RecordFsync(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rows[rowFsync].Record(int64(d))
	t.mu.Unlock()
}

// Recent returns copies of up to n most-recent traces, newest first.
func (t *Tracer) Recent(n int) []BatchTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	span := min(uint64(n), t.n, uint64(len(t.ring)))
	out := make([]BatchTrace, span)
	for i := range out {
		out[i] = t.ring[(t.n-1-uint64(i))&uint64(len(t.ring)-1)]
	}
	return out
}

// Slowest returns copies of up to n slowest traces recorded so far, slowest
// first.
func (t *Tracer) Slowest(n int) []BatchTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]BatchTrace(nil), t.slow[:min(n, len(t.slow))]...)
}

// Snapshot digests the trace count and every histogram row as of one
// instant. A nil tracer returns the zero Digest (nil Stages).
func (t *Tracer) Snapshot() Digest {
	if t == nil {
		return Digest{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Digest{
		Recorded: t.n,
		Stages:   make([]StageStats, NumStages),
		Hold:     digest(t.rows[rowHold]),
		Fsync:    digest(t.rows[rowFsync]),
	}
	for s := range d.Stages {
		d.Stages[s] = StageStats{Stage: Stage(s).String(), LatencyStats: digest(t.rows[s])}
	}
	return d
}

// digest summarizes one histogram. Callers hold the tracer's lock.
func digest(h *hdr.Histogram) LatencyStats {
	return LatencyStats{
		Count: h.Count(),
		Sum:   time.Duration(h.Sum()),
		Min:   time.Duration(h.Min()),
		Max:   time.Duration(h.Max()),
		P50:   time.Duration(h.Quantile(0.50)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
	}
}
