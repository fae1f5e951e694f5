package sim

import (
	"fmt"
	"math/rand"

	"dynctrl/internal/tree"
)

// Scheduler decides the delivery order of the single-threaded adversarial
// runtime. It assigns every message a delivery priority at send time; the
// Scheduled runtime always delivers the queued message with the smallest
// priority, breaking ties in send order. Because a scheduler sees each
// message exactly once and draws randomness only from its own seeded source,
// every schedule is reproducible from the (scheduler, seed) pair alone.
//
// The catalog:
//
//   - FIFO: send order (the most benign schedule; the baseline).
//   - LIFO: newest message first, which drives protocol waves depth-first
//     and maximally against their natural breadth-first order.
//   - Random: uniformly random interleaving (the classic adversary; this is
//     what NewDeterministic has always provided).
//   - LinkDelay: every tree edge gets a fixed pseudo-random latency plus
//     per-message jitter, modeling heterogeneous slow links that reorder
//     traffic across links but rarely within one.
//   - Window: bounded-burst delivery; messages are delivered in bursts of w
//     consecutive sends, randomly permuted within each burst, modeling a
//     network that reorders at most w messages.
//
// Node crash/recovery is not a transport concern: the paper's model only
// removes a node after its whiteboard is handed to its parent (graceful
// deletion), so crash/recovery faults are injected at the workload layer
// (workload.FaultSpec) as adversarial deletion/re-insertion requests that
// exercise precisely that handoff.
type Scheduler interface {
	// Name identifies the scheduler in scenario reports and CLIs.
	Name() string
	// Priority returns the delivery priority of a message. It is called
	// exactly once per Send, in send order; seq is the message's 0-based
	// send sequence number. Lower priorities deliver first.
	Priority(m Message, seq int64) int64
}

// FIFO returns the first-in-first-out scheduler.
func FIFO() Scheduler { return fifoSched{} }

type fifoSched struct{}

func (fifoSched) Name() string                        { return "fifo" }
func (fifoSched) Priority(_ Message, seq int64) int64 { return seq }

// LIFO returns the last-in-first-out scheduler.
func LIFO() Scheduler { return lifoSched{} }

type lifoSched struct{}

func (lifoSched) Name() string                        { return "lifo" }
func (lifoSched) Priority(_ Message, seq int64) int64 { return -seq }

// Random returns the seeded uniformly random interleaving scheduler.
func Random(seed int64) Scheduler {
	return &randomSched{rng: rand.New(rand.NewSource(seed))}
}

type randomSched struct{ rng *rand.Rand }

func (*randomSched) Name() string { return "random" }

func (s *randomSched) Priority(Message, int64) int64 { return s.rng.Int63() }

// LinkDelay returns a scheduler that assigns every (from, to) link a fixed
// pseudo-random base latency in [1, spread] virtual ticks plus per-message
// jitter in [0, spread), against a virtual clock that advances one tick per
// send. spread < 1 is clamped to 1.
func LinkDelay(seed, spread int64) Scheduler {
	if spread < 1 {
		spread = 1
	}
	return &linkDelaySched{
		seed:   seed,
		spread: spread,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

type linkDelaySched struct {
	seed   int64
	spread int64
	rng    *rand.Rand
}

func (*linkDelaySched) Name() string { return "delay" }

func (s *linkDelaySched) Priority(m Message, seq int64) int64 {
	base := int64(splitmix64(uint64(s.seed)^uint64(m.From)*0x9e3779b97f4a7c15^uint64(m.To)*0xbf58476d1ce4e5b9)%uint64(s.spread)) + 1
	return seq + base + s.rng.Int63n(s.spread)
}

// splitmix64 is the standard 64-bit finalizer; it hashes a link endpoint
// pair into a stable per-link latency.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Window returns the bounded-burst scheduler: messages are grouped into
// bursts of window consecutive sends; bursts deliver in order, but the
// messages within one burst are randomly permuted. window < 1 is clamped
// to 1 (which degenerates to FIFO).
func Window(seed, window int64) Scheduler {
	if window < 1 {
		window = 1
	}
	return &windowSched{window: window, rng: rand.New(rand.NewSource(seed))}
}

type windowSched struct {
	window int64
	rng    *rand.Rand
}

func (*windowSched) Name() string { return "window" }

const windowShuffleBits = 20

func (s *windowSched) Priority(_ Message, seq int64) int64 {
	return (seq/s.window)<<windowShuffleBits | s.rng.Int63n(1<<windowShuffleBits)
}

// Scheduled is the single-threaded pluggable-schedule runtime: Send asks the
// Scheduler for the message's priority and Drain repeatedly delivers the
// lowest-priority message until none remain. Like the old Deterministic
// runtime it must be driven from one goroutine (handlers run inside Drain),
// and its heap reuses its backing array across drains so the hot path stays
// allocation-free.
//
// A single message in flight — the protocol's common case, since one agent
// runs at a time — bypasses the scheduler entirely: the message waits in a
// one-slot buffer with no priority assigned, and only when a second message
// joins it do both enter the heap (their Priority calls still happen in
// send order). Scheduling is order-free with one candidate, so this changes
// no observable schedule while keeping the hot path RNG- and sift-free.
type Scheduled struct {
	sched     Scheduler
	handler   Handler
	pending   Message // the buffered singleton, valid when havePending
	pendingAt int64   // its send sequence number
	havePend  bool
	heap      []schedEntry // min-heap on (prio, seq)
	seq       int64
	delivered int64
}

type schedEntry struct {
	m    Message
	prio int64
	seq  int64
}

// NewScheduled returns a runtime delivering in the order chosen by sched.
func NewScheduled(sched Scheduler) *Scheduled {
	return &Scheduled{sched: sched}
}

var _ Runtime = (*Scheduled)(nil)

// SchedulerName returns the name of the installed scheduler.
func (s *Scheduled) SchedulerName() string { return s.sched.Name() }

// SetHandler implements Runtime.
func (s *Scheduled) SetHandler(h Handler) { s.handler = h }

// Send implements Runtime.
func (s *Scheduled) Send(from, to tree.NodeID, payload any) {
	m := Message{From: from, To: to, Payload: payload}
	seq := s.seq
	s.seq++
	if !s.havePend && len(s.heap) == 0 {
		s.pending, s.pendingAt, s.havePend = m, seq, true
		return
	}
	if s.havePend {
		// A second candidate exists: the buffered singleton enters the
		// heap first, keeping the scheduler's Priority calls in send order.
		s.havePend = false
		s.push(s.pending, s.pendingAt)
		s.pending = Message{}
	}
	s.push(m, seq)
}

func (s *Scheduled) push(m Message, seq int64) {
	s.heap = append(s.heap, schedEntry{m: m, prio: s.sched.Priority(m, seq), seq: seq})
	s.siftUp(len(s.heap) - 1)
}

// Drain implements Runtime: it delivers queued messages in priority order
// until none remain.
func (s *Scheduled) Drain() {
	for {
		var m Message
		switch {
		case s.havePend:
			m = s.pending
			s.pending = Message{} // drop payload reference for the GC
			s.havePend = false
		case len(s.heap) > 0:
			m = s.heap[0].m
			last := len(s.heap) - 1
			s.heap[0] = s.heap[last]
			s.heap[last] = schedEntry{} // drop payload reference for the GC
			s.heap = s.heap[:last]
			if last > 0 {
				s.siftDown(0)
			}
		default:
			return
		}
		s.delivered++
		s.handler(m)
	}
}

// Messages implements Runtime.
func (s *Scheduled) Messages() int64 { return s.delivered }

// InFlightTo implements Runtime.
func (s *Scheduled) InFlightTo(id tree.NodeID) int {
	n := 0
	if s.havePend && s.pending.To == id {
		n++
	}
	for i := range s.heap {
		if s.heap[i].m.To == id {
			n++
		}
	}
	return n
}

func (s *Scheduled) less(i, j int) bool {
	if s.heap[i].prio != s.heap[j].prio {
		return s.heap[i].prio < s.heap[j].prio
	}
	return s.heap[i].seq < s.heap[j].seq
}

func (s *Scheduled) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduled) siftDown(i int) {
	n := len(s.heap)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}

// Deterministic is the seeded random-interleaving runtime: a Scheduled
// runtime with a Random scheduler. The name is kept because random
// interleaving is the repo-wide default transport for reproducible runs.
type Deterministic = Scheduled

// NewDeterministic returns a deterministic random-interleaving runtime with
// the given seed.
func NewDeterministic(seed int64) *Deterministic {
	return NewScheduled(Random(seed))
}

// Default parameters of the named scheduler catalog. Scenario reports
// record only the scheduler name and seed, so the shape parameters are
// fixed here rather than per call site.
const (
	DefaultDelaySpread = 16
	DefaultWindow      = 8
	// DefaultWorkers is the worker count of the named "concurrent" runtime.
	DefaultWorkers = 4
)

// SchedulerNames lists the named schedulers of the catalog, benign first.
func SchedulerNames() []string {
	return []string{"fifo", "lifo", "random", "delay", "window"}
}

// newScheduler constructs a catalog scheduler by name.
func newScheduler(name string, seed int64) (Scheduler, error) {
	switch name {
	case "fifo":
		return FIFO(), nil
	case "lifo":
		return LIFO(), nil
	case "random":
		return Random(seed), nil
	case "delay":
		return LinkDelay(seed, DefaultDelaySpread), nil
	case "window":
		return Window(seed, DefaultWindow), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q (have %v)", name, SchedulerNames())
	}
}

// RuntimeNames lists every named transport: the scheduler catalog plus the
// worker-pool "concurrent" runtime.
func RuntimeNames() []string {
	return append(SchedulerNames(), "concurrent")
}

// NewRuntime constructs a named transport. Every scheduler name yields a
// Scheduled runtime; "concurrent" yields a worker-pool runtime whose
// schedule is decided by the Go scheduler (and is therefore the one
// non-reproducible member of the catalog).
func NewRuntime(name string, seed int64) (Runtime, error) {
	if name == "concurrent" {
		return NewConcurrent(DefaultWorkers), nil
	}
	s, err := newScheduler(name, seed)
	if err != nil {
		return nil, err
	}
	return NewScheduled(s), nil
}
