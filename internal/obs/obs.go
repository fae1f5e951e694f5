// Package obs is dynctrld's low-overhead observability layer: stage-level
// request tracing, server-side latency digests, structured-logging setup
// and Prometheus exposition helpers.
//
// The daemon serves batches, so the unit of observation is the read batch:
// every coalesced run of Submit frames a connection takes off its socket
// becomes one BatchTrace with a per-stage duration breakdown (frame
// decode, wait for the tenant's lock, controller execute, WAL append→durable,
// Results write) plus controller-work tags (batch size, controller moves,
// reject-wave membership). Traces land in a fixed-size lock-free
// ring (most-recent-N) and a small bounded top-K (slowest-N), and every
// stage duration is folded into an internal/hdr log-linear histogram, so
// /tracez can show individual slow batches while /metricsz reports
// per-stage quantiles — without unbounded memory and without a lock on
// the ring hot path.
//
// Observing concurrent executions without perturbing them is the whole
// point (cf. partially observable concurrent semantics): the record path
// is one allocation, one atomic slot publish, an atomic threshold check
// and a short histogram critical section per *batch* (not per request).
// CI's perf-smoke gates bench/'s obs.overhead_ratio (untraced / traced
// throughput, -trace-ring -1 against defaults) on events-batch at <= 1.29.
package obs

import (
	"sync"
	"sync/atomic"
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

// StageName reports whether name names a stage (including "total").
func StageName(name string) bool {
	for _, n := range stageNames {
		if n == name {
			return true
		}
	}
	return false
}

// BatchTrace is one recorded read batch: identity, per-stage durations and
// the controller-work tags that explain where the time went.
type BatchTrace struct {
	// ID is the tenant-scoped trace ID (monotonic, allocated by NextID).
	ID uint64
	// Start is the wall-clock instant the batch's first frame arrived.
	Start time.Time
	// Total is the end-to-end batch duration.
	Total time.Duration
	// Stages holds the per-stage durations (StageTotal lives in Total).
	Stages [StageTotal]time.Duration

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
	// Wave marks reject-wave membership: the batch carried rejects.
	Wave bool
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

// Tracer records BatchTraces for one tenant. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so a disabled tracer
// is simply nil.
type Tracer struct {
	seq  atomic.Uint64 // trace-ID allocator
	head atomic.Uint64 // ring publish cursor (== traces recorded)
	ring []atomic.Pointer[BatchTrace]

	// slow is a bounded min-heap (by Total) of the slowest traces;
	// slowMin caches the heap's admission threshold so the record path
	// usually pays one atomic load, not the mutex.
	slowMin atomic.Int64
	slowMu  sync.Mutex
	slow    []*BatchTrace
	slowCap int

	histMu sync.Mutex
	hists  [NumStages]*hdr.Histogram
}

// DefaultRing is the ring size when NewTracer is given ring <= 0.
const DefaultRing = 256

// DefaultSlow is the slowest-N capacity when NewTracer is given slow <= 0.
const DefaultSlow = 32

// NewTracer builds a tracer with a most-recent ring of (at least) ring
// traces — rounded up to a power of two — and a slowest-N capacity of slow.
func NewTracer(ring, slow int) *Tracer {
	if ring <= 0 {
		ring = DefaultRing
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	if slow <= 0 {
		slow = DefaultSlow
	}
	t := &Tracer{
		ring:    make([]atomic.Pointer[BatchTrace], size),
		slowCap: slow,
	}
	for i := range t.hists {
		t.hists[i] = hdr.New()
	}
	return t
}

// NextID allocates the next trace ID (0 on a nil tracer).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Recorded returns how many traces have been recorded (0 on nil).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.head.Load()
}

// RingSize returns the ring capacity (0 on nil).
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Record publishes one finished trace: into the ring (lock-free), into the
// slowest-N heap when it beats the admission threshold, and into the
// per-stage histograms. The caller must not mutate bt afterwards.
func (t *Tracer) Record(bt *BatchTrace) {
	if t == nil || bt == nil {
		return
	}
	i := t.head.Add(1) - 1
	t.ring[i&uint64(len(t.ring)-1)].Store(bt)

	if int64(bt.Total) > t.slowMin.Load() {
		t.offerSlow(bt)
	}

	t.histMu.Lock()
	for s := StageDecode; s < StageTotal; s++ {
		t.hists[s].Record(int64(bt.Stages[s]))
	}
	t.hists[StageTotal].Record(int64(bt.Total))
	t.histMu.Unlock()
}

// offerSlow inserts bt into the bounded min-heap and refreshes the cached
// admission threshold.
func (t *Tracer) offerSlow(bt *BatchTrace) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	if len(t.slow) < t.slowCap {
		t.slow = append(t.slow, bt)
		t.siftUp(len(t.slow) - 1)
	} else if bt.Total > t.slow[0].Total {
		t.slow[0] = bt
		t.siftDown(0)
	}
	if len(t.slow) == t.slowCap {
		t.slowMin.Store(int64(t.slow[0].Total))
	}
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.slow[p].Total <= t.slow[i].Total {
			return
		}
		t.slow[p], t.slow[i] = t.slow[i], t.slow[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	n := len(t.slow)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && t.slow[l].Total < t.slow[m].Total {
			m = l
		}
		if r < n && t.slow[r].Total < t.slow[m].Total {
			m = r
		}
		if m == i {
			return
		}
		t.slow[i], t.slow[m] = t.slow[m], t.slow[i]
		i = m
	}
}

// Recent returns up to n most-recent traces, newest first. Concurrent
// writers may be overwriting slots while this reads; the result is a
// best-effort snapshot (each returned trace is individually consistent —
// traces are immutable once recorded).
func (t *Tracer) Recent(n int) []*BatchTrace {
	if t == nil || n <= 0 {
		return nil
	}
	head := t.head.Load()
	span := uint64(len(t.ring))
	if head < span {
		span = head
	}
	if uint64(n) < span {
		span = uint64(n)
	}
	out := make([]*BatchTrace, 0, span)
	for i := uint64(0); i < span; i++ {
		bt := t.ring[(head-1-i)&uint64(len(t.ring)-1)].Load()
		if bt != nil {
			out = append(out, bt)
		}
	}
	return out
}

// Slowest returns up to n slowest traces recorded so far, slowest first.
func (t *Tracer) Slowest(n int) []*BatchTrace {
	if t == nil || n <= 0 {
		return nil
	}
	t.slowMu.Lock()
	out := make([]*BatchTrace, len(t.slow))
	copy(out, t.slow)
	t.slowMu.Unlock()
	// Small K: a simple insertion sort (descending by Total) is plenty.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Total > out[j-1].Total; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Snapshot digests every stage histogram (decode..write then total), in
// stage order. Nil tracers return nil.
func (t *Tracer) Snapshot() []StageStats {
	if t == nil {
		return nil
	}
	out := make([]StageStats, 0, NumStages)
	t.histMu.Lock()
	for s := 0; s < NumStages; s++ {
		out = append(out, StageStats{
			Stage:        Stage(s).String(),
			LatencyStats: digest(t.hists[s]),
		})
	}
	t.histMu.Unlock()
	return out
}

// digest summarizes one histogram. Callers hold the histogram's lock.
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

// Recorder is a mutex-guarded duration histogram for single-distribution
// observations off the batch path (a run's hold of its tenant's lock, WAL
// fsyncs).
// Nil receivers no-op.
type Recorder struct {
	mu sync.Mutex
	h  *hdr.Histogram
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{h: hdr.New()} }

// Record adds one duration sample.
func (r *Recorder) Record(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.h.Record(int64(d))
	r.mu.Unlock()
}

// Stats digests the distribution recorded so far.
func (r *Recorder) Stats() LatencyStats {
	if r == nil {
		return LatencyStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return digest(r.h)
}
