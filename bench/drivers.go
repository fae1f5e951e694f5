package bench

import (
	"sync"
	"syscall"
	"time"

	"dynctrl/internal/controller"
)

// manySubmitter is what a closed-loop connection drives: the wire client,
// or in the ladder the pipeline.
type manySubmitter interface {
	SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error)
}

// submitter is what the open loop drives, one request at a time.
type submitter interface {
	Submit(controller.Request) (controller.Grant, error)
}

// Tally is what one connection (or in-flight slot) observed.
type Tally struct {
	Submitted, Granted, Rejected int64
	Errors                       int64 // transport or per-result errors
	NoVerdict                    int64 // answered, but neither granted nor rejected
	GrantAfterReject             int64 // grants this connection saw after its first reject
	Serials                      []int64
	Lat                          []int64 // ns per call, from the instant it was due
}

func (t *Tally) add(o *Tally) {
	t.Submitted += o.Submitted
	t.Granted += o.Granted
	t.Rejected += o.Rejected
	t.Errors += o.Errors
	t.NoVerdict += o.NoVerdict
	t.GrantAfterReject += o.GrantAfterReject
	t.Serials = append(t.Serials, o.Serials...)
	t.Lat = append(t.Lat, o.Lat...)
}

// count books one answered request.
func (t *Tally) count(g controller.Grant, err error) {
	switch {
	case err != nil:
		t.Errors++
	case g.Outcome == controller.Granted:
		t.Granted++
		if t.Rejected > 0 {
			t.GrantAfterReject++
		}
		if g.Serial != 0 {
			t.Serials = append(t.Serials, g.Serial)
		}
	case g.Outcome == controller.Rejected:
		t.Rejected++
	default:
		t.NoVerdict++
	}
}

// runClosed is one connection's closed loop over its chunks [from, to): the
// next call goes out only after the previous reply. Every call's round trip
// is timed; with a recorder it is also a span, named span, carrying the
// chunk's id.
func runClosed(sub manySubmitter, in *Input, conn, from, to int, t *Tally, rec *Recorder, span string) {
	name := rec.Name(span)
	var out []controller.BatchResult
	for k := from; k < to; k++ {
		reqs := in.Chunk(conn, k)
		sp := rec.Begin(name, -1, ChunkID(conn, k))
		t0 := time.Now()
		var err error
		out, err = sub.SubmitMany(reqs, out[:0])
		t.Lat = append(t.Lat, int64(time.Since(t0)))
		rec.End(sp)
		t.Submitted += int64(len(reqs))
		if err != nil {
			t.Errors += int64(len(reqs))
			continue
		}
		for _, r := range out {
			t.count(r.Grant, r.Err)
		}
		t.NoVerdict += int64(len(reqs) - len(out))
	}
}

// runClosedAll drives every connection's chunks [from, to) concurrently,
// booking into the caller's per-connection tallies, and returns the wall
// time of the phase.
func runClosedAll(subs [Conns]manySubmitter, in *Input, from, to int, tallies *[Conns]Tally, rec *Recorder, span string) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClosed(subs[c], in, c, from, to, &tallies[c], rec, span)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// newTallies sizes the per-connection tallies for a whole run up front, so
// the timed loop never grows them.
func newTallies(in *Input) *[Conns]Tally {
	var t [Conns]Tally
	for c := range t {
		t[c].Lat = make([]int64, 0, in.NumChunks())
		t[c].Serials = make([]int64, 0, in.PerConn)
	}
	return &t
}

// mergeTallies sums the per-connection tallies.
func mergeTallies(tallies *[Conns]Tally) *Tally {
	total := &Tally{}
	for c := range tallies {
		total.add(&tallies[c])
	}
	return total
}

// OpenTimings are the open loop's extra distributions, all in ns.
type OpenTimings struct {
	Svc []int64 // reply − actual send
	Lag []int64 // actual send − due: how late the generator ran
}

// openLead delays the first arrival, so the slots are parked before it is
// due.
const openLead = time.Millisecond

type openJob struct {
	i   int
	due time.Duration
}

// runOpen sends arrivals [from, to) of the schedule on time, whatever the
// replies do. One dispatcher spins, without yielding, to each due instant
// and hands the request to one of openSlots parked goroutines; on this
// class of VM a sleeping timer overshoots by 0.5 to 1 ms, which would
// dwarf the latencies measured. Slot s sends on connection s mod Conns.
// Latency is timed from the due instant, so a wait for a free slot or a
// late dispatcher counts against the request. With a recorder every send is
// a span, named span; arrival i is chunk i of the serial order.
func runOpen(subs [Conns]submitter, in *Input, from, to int, rec *Recorder, span string) (*Tally, *OpenTimings, time.Duration) {
	name := rec.Name(span)
	type slotState struct {
		Tally
		OpenTimings
	}
	var (
		slots [openSlots]slotState
		work  [openSlots]chan openJob
		// Every slot can be free at once.
		free = make(chan int, openSlots)
		wg   sync.WaitGroup
	)
	start := time.Now()
	for s := range work {
		work[s] = make(chan openJob, 1)
		free <- s
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st, sub := &slots[s], subs[s%Conns]
			for j := range work[s] {
				sp := rec.Begin(name, -1, int64(j.i))
				send := time.Since(start)
				g, err := sub.Submit(in.Request(j.i))
				done := time.Since(start)
				rec.End(sp)
				st.Submitted++
				st.count(g, err)
				st.Lat = append(st.Lat, int64(done-j.due))
				st.Svc = append(st.Svc, int64(done-send))
				st.Lag = append(st.Lag, int64(send-j.due))
				free <- s
			}
		}(s)
	}
	base := in.Offsets[from]
	for i := from; i < to; i++ {
		due := in.Offsets[i] - base + openLead
		for time.Since(start) < due {
			syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
		s := -1
		for s < 0 {
			select {
			case s = <-free:
			default:
				syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
		}
		work[s] <- openJob{i: i, due: due}
	}
	for s := range work {
		close(work[s])
	}
	wg.Wait()
	elapsed := time.Since(start) - openLead
	total, timings := &Tally{}, &OpenTimings{}
	for s := range slots {
		total.add(&slots[s].Tally)
		timings.Svc = append(timings.Svc, slots[s].Svc...)
		timings.Lag = append(timings.Lag, slots[s].Lag...)
	}
	return total, timings, elapsed
}

// nullSubmitter answers at once: an open-loop run over it measures the
// generator alone.
type nullSubmitter struct{}

func (nullSubmitter) Submit(controller.Request) (controller.Grant, error) {
	return controller.Grant{Outcome: controller.Granted}, nil
}
