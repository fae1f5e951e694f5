// Open-loop arrival schedules: requests arrive at precomputed offsets
// regardless of how fast the system answers, so a latency measured from
// each scheduled arrival charges the backlog of a stall to the system
// (the coordinated-omission-safe convention). bench/'s events-open
// workload dispatches on this schedule.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ArrivalPoisson is the arrival process of OpenLoopSpec: exponential gaps
// of mean 1/Rate.
const ArrivalPoisson = "poisson"

// OpenLoopSpec describes one open-loop arrival schedule.
type OpenLoopSpec struct {
	// Rate is the scheduled arrival rate in requests per second (> 0).
	Rate float64
	// Arrival is ArrivalPoisson (the default when empty).
	Arrival string
	// Total is the number of scheduled arrivals (> 0).
	Total int
	// Seed drives the Poisson gap draws: the same (Rate, Arrival, Total,
	// Seed) always yields the same schedule.
	Seed int64
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
	if spec.Arrival != ArrivalPoisson && spec.Arrival != "" {
		return nil, fmt.Errorf("workload: unknown arrival process %q (want %s)", spec.Arrival, ArrivalPoisson)
	}
	offs := make([]time.Duration, spec.Total)
	rng := rand.New(rand.NewSource(spec.Seed))
	t := 0.0
	for i := range offs {
		offs[i] = time.Duration(t)
		t += rng.ExpFloat64() / spec.Rate * float64(time.Second)
	}
	return offs, nil
}
