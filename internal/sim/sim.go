// Package sim provides the asynchronous message-passing substrate for the
// distributed controller (Section 4 of the paper).
//
// The paper assumes a standard point-to-point asynchronous network: every
// message incurs an arbitrary but finite delay, so all a simulator has to
// choose is a delivery order. Runtime is a single-threaded runtime whose
// delivery order is decided by a pluggable, seeded scheduler (see sched.go
// for the catalog: FIFO, LIFO, random interleaving, per-link delay, bounded
// bursts). Every run is reproducible from the (scheduler, seed) pair while
// still exploring adversarial interleavings; NewDeterministic, the Random
// scheduler, is the repo-wide default.
//
// The runtime does not know about nodes or topology: it moves opaque
// envelopes and counts them (message complexity), delegating all semantics
// to a single handler installed by the distributed controller.
package sim

import "dynctrl/internal/tree"

// Message is one in-flight envelope.
type Message struct {
	From    tree.NodeID
	To      tree.NodeID
	Payload any
}

// handler processes one delivered message. Handlers may call Runtime.Send
// to emit further messages. Handlers run one at a time inside Drain, which
// models the paper's "only one agent is active at a node at one time".
type handler func(m Message)

// Runtime is the message transport: Send asks the scheduler for the
// message's priority and Drain repeatedly delivers the lowest-priority
// message until none remain. It must be driven from one goroutine (handlers
// run inside Drain), and its heap reuses its backing array across drains so
// the hot path stays allocation-free.
//
// A single message in flight — the protocol's common case, since one agent
// runs at a time — bypasses the scheduler entirely: the message waits in a
// one-slot buffer with no priority assigned, and only when a second message
// joins it do both enter the heap (their Priority calls still happen in
// send order). Scheduling is order-free with one candidate, so this changes
// no observable schedule while keeping the hot path RNG- and sift-free.
type Runtime struct {
	sched     scheduler
	handler   handler
	pending   Message // the buffered singleton, valid when havePend
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

// over returns a runtime delivering in the order chosen by sched.
func over(sched scheduler) *Runtime {
	return &Runtime{sched: sched}
}

// NewDeterministic returns the seeded random-interleaving runtime.
func NewDeterministic(seed int64) *Runtime {
	return over(random(seed))
}

// SetHandler installs the delivery handler. It must be called before any
// Drain.
func (s *Runtime) SetHandler(h handler) { s.handler = h }

// Send enqueues a message. Handlers may call it.
func (s *Runtime) Send(from, to tree.NodeID, payload any) {
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

func (s *Runtime) push(m Message, seq int64) {
	s.heap = append(s.heap, schedEntry{m: m, prio: s.sched.Priority(m, seq), seq: seq})
	s.siftUp(len(s.heap) - 1)
}

// Drain delivers queued messages in priority order until none remain.
func (s *Runtime) Drain() {
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

// Messages returns the number of messages delivered so far.
func (s *Runtime) Messages() int64 { return s.delivered }

func (s *Runtime) less(i, j int) bool {
	if s.heap[i].prio != s.heap[j].prio {
		return s.heap[i].prio < s.heap[j].prio
	}
	return s.heap[i].seq < s.heap[j].seq
}

func (s *Runtime) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Runtime) siftDown(i int) {
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
