// Open-loop load generation: requests arrive on a precomputed schedule
// (Poisson or fixed-interval) regardless of how fast the system answers,
// and every request's latency is measured from its *scheduled* arrival
// time — so when the system falls behind, the queueing delay of the
// backlog is charged to the system rather than silently elided. That is
// the coordinated-omission-safe convention: a closed loop that waits for
// each reply before sending the next request can never observe the very
// stalls it induces.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/hdr"
)

// Arrival processes for OpenLoopSpec (strings, so the spec serializes
// trivially and a command-line flag can name one).
const (
	ArrivalPoisson = "poisson"
	ArrivalFixed   = "fixed"
)

// OpenLoopSpec describes one open-loop run.
type OpenLoopSpec struct {
	// Rate is the scheduled arrival rate in requests per second (> 0).
	Rate float64
	// Arrival is ArrivalPoisson (default) or ArrivalFixed.
	Arrival string
	// Total is the number of scheduled arrivals (> 0).
	Total int
	// Workers bounds the number of concurrent in-flight submissions
	// (default 16). When every worker is busy past an arrival's scheduled
	// time, the wait for a free worker counts toward that request's
	// latency — that is the point.
	Workers int
	// Seed drives the Poisson gap draws: the same (Rate, Arrival, Total,
	// Seed) always yields the same schedule.
	Seed int64
}

// OpenLoopResult is the outcome of one open-loop run.
type OpenLoopResult struct {
	ConcurrentResult
	// Hist is the coordinated-omission-safe latency distribution
	// (nanoseconds from scheduled arrival to completion).
	Hist *hdr.Histogram
	// Elapsed spans the first scheduled arrival to the last completion.
	Elapsed time.Duration
	// AchievedRate is completed requests per second of Elapsed; it tracks
	// Spec.Rate while the target keeps up and collapses below it when the
	// target saturates.
	AchievedRate float64
}

// ArrivalSchedule precomputes the arrival offsets of spec, relative to
// the run's start. Deterministic in (Rate, Arrival, Total, Seed).
func ArrivalSchedule(spec OpenLoopSpec) ([]time.Duration, error) {
	if spec.Rate <= 0 || math.IsNaN(spec.Rate) || math.IsInf(spec.Rate, 0) {
		return nil, fmt.Errorf("workload: open-loop rate %v must be a positive finite number", spec.Rate)
	}
	if spec.Total <= 0 {
		return nil, fmt.Errorf("workload: open-loop total %d must be positive", spec.Total)
	}
	offs := make([]time.Duration, spec.Total)
	switch spec.Arrival {
	case ArrivalFixed:
		gap := float64(time.Second) / spec.Rate
		for i := range offs {
			offs[i] = time.Duration(float64(i) * gap)
		}
	case ArrivalPoisson, "":
		rng := rand.New(rand.NewSource(spec.Seed))
		t := 0.0
		for i := range offs {
			offs[i] = time.Duration(t)
			t += rng.ExpFloat64() / spec.Rate * float64(time.Second)
		}
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (want %s or %s)",
			spec.Arrival, ArrivalPoisson, ArrivalFixed)
	}
	return offs, nil
}

// RunOpenLoop drives reqs against sub on spec's schedule; arrival i
// submits reqs[i%len(reqs)]. sub must be safe for concurrent use. Errors
// are tallied and do not stop the run.
func RunOpenLoop(sub controller.Submitter, reqs []controller.Request, spec OpenLoopSpec) (*OpenLoopResult, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: open-loop run needs at least one request")
	}
	offs, err := ArrivalSchedule(spec)
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = 16
	}
	if workers > spec.Total {
		workers = spec.Total
	}

	var (
		next  atomic.Int64
		mu    sync.Mutex
		res   OpenLoopResult
		wg    sync.WaitGroup
		start = time.Now()
	)
	res.Hist = hdr.New()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := hdr.New()
			var tally ConcurrentResult
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.Total {
					break
				}
				scheduled := start.Add(offs[i])
				if d := time.Until(scheduled); d > 0 {
					time.Sleep(d)
				}
				tally.Submitted++
				g, err := sub.Submit(reqs[i%len(reqs)])
				// Latency from the scheduled arrival, not the actual send:
				// time spent waiting for a free worker or a free connection
				// is backlog the system caused.
				local.Record(int64(time.Since(scheduled)))
				switch {
				case err != nil:
					tally.Errors++
				case g.Outcome == controller.Granted:
					tally.Granted++
				case g.Outcome == controller.Rejected:
					tally.Rejected++
				}
			}
			mu.Lock()
			res.Hist.Merge(local)
			res.Granted += tally.Granted
			res.Rejected += tally.Rejected
			res.Errors += tally.Errors
			res.Submitted += tally.Submitted
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.AchievedRate = float64(res.Submitted) / res.Elapsed.Seconds()
	}
	return &res, nil
}
