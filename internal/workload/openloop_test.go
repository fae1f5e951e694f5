package workload

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestArrivalScheduleDeterministic pins what bench/'s events-open workload
// relies on: one seed, one schedule, starting at zero and never going back.
func TestArrivalScheduleDeterministic(t *testing.T) {
	spec := OpenLoopSpec{Rate: 5000, Arrival: ArrivalPoisson, Total: 1000, Seed: 7}
	a, err := ArrivalSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec: schedules differ")
	}
	if a[0] != 0 {
		t.Fatalf("offs[0] = %v, want 0", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offs[%d] = %v < offs[%d] = %v", i, a[i], i-1, a[i-1])
		}
	}
	spec.Seed = 8
	c, err := ArrivalSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds: identical schedules")
	}
}

// TestArrivalScheduleMeanGap checks the Poisson gaps average 1/rate.
func TestArrivalScheduleMeanGap(t *testing.T) {
	const rate, total = 20000.0, 100000
	offs, err := ArrivalSchedule(OpenLoopSpec{Rate: rate, Total: total, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(offs[total-1]) / (total - 1)
	want := float64(time.Second) / rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("mean gap %.0fns, want %.0fns ±2%%", mean, want)
	}
}

func TestArrivalScheduleRejects(t *testing.T) {
	for _, spec := range []OpenLoopSpec{
		{Rate: 0, Total: 10},
		{Rate: -1, Total: 10},
		{Rate: math.NaN(), Total: 10},
		{Rate: math.Inf(1), Total: 10},
		{Rate: math.Inf(-1), Total: 10},
		{Rate: 100, Total: 0},
		{Rate: 100, Total: -1},
		{Rate: 100, Total: 10, Arrival: "fixed"},
	} {
		if _, err := ArrivalSchedule(spec); err == nil {
			t.Errorf("ArrivalSchedule(%+v) = nil error", spec)
		}
	}
}
