package sim

import (
	"fmt"
	"math/rand"
)

// scheduler decides the delivery order of the runtime. It assigns every
// message a delivery priority at send time; the runtime always delivers the
// queued message with the smallest priority, breaking ties in send order. Because a scheduler sees each
// message exactly once and draws randomness only from its own seeded source,
// every schedule is reproducible from the (scheduler, seed) pair alone.
//
// The catalog:
//
//   - FIFO: send order (the most benign schedule; the baseline).
//   - LIFO: newest message first, which drives protocol waves depth-first
//     and maximally against their natural breadth-first order.
//   - Random: uniformly random interleaving (the classic adversary, and
//     NewDeterministic's scheduler).
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
type scheduler interface {
	// Priority returns the delivery priority of a message. It is called
	// exactly once per Send, in send order; seq is the message's 0-based
	// send sequence number. Lower priorities deliver first.
	Priority(m Message, seq int64) int64
}

// fifo returns the first-in-first-out scheduler.
func fifo() scheduler { return fifoSched{} }

type fifoSched struct{}

func (fifoSched) Priority(_ Message, seq int64) int64 { return seq }

// lifo returns the last-in-first-out scheduler.
func lifo() scheduler { return lifoSched{} }

type lifoSched struct{}

func (lifoSched) Priority(_ Message, seq int64) int64 { return -seq }

// random returns the seeded uniformly random interleaving scheduler.
func random(seed int64) scheduler {
	return &randomSched{rng: rand.New(rand.NewSource(seed))}
}

type randomSched struct{ rng *rand.Rand }

func (s *randomSched) Priority(Message, int64) int64 { return s.rng.Int63() }

// linkDelay returns a scheduler that assigns every (from, to) link a fixed
// pseudo-random base latency in [1, spread] virtual ticks plus per-message
// jitter in [0, spread), against a virtual clock that advances one tick per
// send. spread < 1 is clamped to 1.
func linkDelay(seed, spread int64) scheduler {
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

// window returns the bounded-burst scheduler: messages are grouped into
// bursts of window consecutive sends; bursts deliver in order, but the
// messages within one burst are randomly permuted. window < 1 is clamped
// to 1 (which degenerates to FIFO).
func window(seed, window int64) scheduler {
	if window < 1 {
		window = 1
	}
	return &windowSched{window: window, rng: rand.New(rand.NewSource(seed))}
}

type windowSched struct {
	window int64
	rng    *rand.Rand
}

const windowShuffleBits = 20

func (s *windowSched) Priority(_ Message, seq int64) int64 {
	return (seq/s.window)<<windowShuffleBits | s.rng.Int63n(1<<windowShuffleBits)
}

// SchedulerNames lists the named schedulers of the catalog, benign first.
func SchedulerNames() []string {
	return []string{"fifo", "lifo", "random", "delay", "window"}
}

// Shape parameters of the named catalog. Scenario reports record only the
// scheduler name and seed, so they are fixed here rather than per call site.
const (
	catalogDelaySpread = 16
	catalogWindow      = 8
)

// NewRuntime constructs a runtime over the named catalog scheduler.
func NewRuntime(name string, seed int64) (*Runtime, error) {
	switch name {
	case "fifo":
		return over(fifo()), nil
	case "lifo":
		return over(lifo()), nil
	case "random":
		return over(random(seed)), nil
	case "delay":
		return over(linkDelay(seed, catalogDelaySpread)), nil
	case "window":
		return over(window(seed, catalogWindow)), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q (have %v)", name, SchedulerNames())
	}
}
