package main

import (
	"fmt"
	"os"

	"dynctrl/bench"
)

// runSets runs every workload's end-to-end and traced run `sets` times at
// one seed, reversing the workload order on every other set so slow drift
// of the machine does not line up with a workload. It then prints, for each
// end-to-end metric on each workload, the median, the quartiles and their
// distance as a share of the median next to the metric's bound, and checks
// that the exact per-layer metrics repeated to the last digit. It reports
// whether every spread stayed within its bound and every check passed.
func runSets(env *bench.Env, workloads []bench.Workload, seed int64, seconds float64, sets int) (bool, error) {
	type cell struct{ workload, metric string }
	e2e, layer := map[cell][]float64{}, map[cell][]float64{}
	ok := true
	for s := 0; s < sets; s++ {
		for i := range workloads {
			w := workloads[i]
			if s%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			fmt.Fprintf(os.Stderr, "bench: set %d/%d: %s\n", s+1, sets, w.Name)
			in, err := bench.Generate(w, seed)
			if err != nil {
				return false, err
			}
			r, err := env.RunE2E(in, seconds)
			if err != nil {
				return false, err
			}
			t, err := env.RunTraced(in)
			if err != nil {
				return false, err
			}
			ok = report(w.Name, r.Problems) && report(w.Name, t.Problems) && r.Failed == 0 && t.Failed == 0 && ok
			for _, m := range bench.EndToEnd {
				e2e[cell{w.Name, m.Name}] = append(e2e[cell{w.Name, m.Name}], r.Values.V[m.Name])
			}
			for _, m := range bench.PerLayer {
				layer[cell{w.Name, m.Name}] = append(layer[cell{w.Name, m.Name}], t.Values.V[m.Name])
			}
		}
	}

	fmt.Printf("%-14s %-22s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			vals := e2e[cell{w.Name, m.Name}]
			verdict := ""
			spread := bench.Spread(vals)
			// As for the driver, set-up time's spread is shown but not held
			// against its bound (only its median is), and an ungated
			// workload has no bounds.
			if spread > m.Bound && m.Name != "setup_s" && !w.Ungated {
				verdict = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			q1, q3 := vals[0], vals[0]
			if len(vals) > 1 {
				q1, q3 = bench.Quartiles(vals)
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n",
				w.Name, m.Name, bench.Median(vals), q1, q3, spread, m.Bound, verdict)
		}
	}
	for _, w := range workloads {
		for _, m := range bench.PerLayer {
			vals := layer[cell{w.Name, m.Name}]
			if bench.Exact[m.Name] {
				for _, v := range vals[1:] {
					if v != vals[0] {
						fmt.Printf("%-14s %-40s NOT EXACT: %v\n", w.Name, m.Name, vals)
						ok = false
						break
					}
				}
				continue
			}
			fmt.Printf("%-14s %-40s median %14.6g  spread %8.4f\n", w.Name, m.Name, bench.Median(vals), bench.Spread(vals))
		}
	}
	return ok, nil
}
