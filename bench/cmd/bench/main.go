// Command bench runs the repository's benchmark (see ../../README.md).
//
//	go run -C bench ./cmd/bench -seed 1             # every workload, both kinds of run
//	go run -C bench ./cmd/bench -workload grow-mix -seed 1 -seconds 10 -trace 0
//	go run -C bench ./cmd/bench -sets 2 -seed 1     # spreads against the bounds
//
// Every metric is printed by name with its unit. With one workload and one
// kind of run the last line of standard output is the JSON object
// BENCHMARK.json's driver reads. Any failed check makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dynctrl/bench"
)

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || !ok {
		os.Exit(1)
	}
}

// run reports whether every check passed.
func run() (bool, error) {
	workload := flag.String("workload", "", "run this workload only (default: all six)")
	seed := flag.Int64("seed", 1, "seed of the generated requests and of the open loop's arrival schedule")
	seconds := flag.Float64("seconds", 0, "how long one end-to-end run measures (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, spans off; 1: the traced run's per-layer metrics; -1: both")
	sets := flag.Int("sets", 0, "run this many full sets, alternating workload order, and hold every spread against its bound")
	flag.Parse()

	root, err := bench.FindRoot()
	if err != nil {
		return false, err
	}
	spec, err := bench.LoadSpec(root)
	if err != nil {
		return false, err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	workloads := bench.Workloads()
	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			return false, err
		}
		workloads = []bench.Workload{w}
	}
	env, err := bench.NewEnv(root)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, "bench:", env.Describe())

	if *sets > 0 {
		return runSets(env, workloads, *seed, *seconds, *sets)
	}

	ok := true
	var last *bench.Result
	for _, w := range workloads {
		in, err := bench.Generate(w, *seed)
		if err != nil {
			return false, err
		}
		if *trace != 1 {
			r, err := env.RunE2E(in, *seconds)
			if err != nil {
				return false, err
			}
			fmt.Printf("%s: end to end, %d daemon lifetimes, %d requests, %d failed (failed_share %g)\n",
				w.Name, r.Iterations, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
			printValues(w.Name, bench.EndToEnd, r.Values)
			for _, i := range r.Info {
				fmt.Printf("  %-14s %-40s %16.6g %-6s n=%d (no bound)\n", w.Name, i.Name, i.Value, i.Unit, i.N)
			}
			ok = report(w.Name, r.Problems) && ok
			if last, err = bench.NewResult(bench.EndToEnd, r.Values, r.Checks); err != nil {
				return false, err
			}
		}
		if *trace != 0 {
			t, err := env.RunTraced(in)
			if err != nil {
				return false, err
			}
			fmt.Printf("%s: traced, %d requests, %d failed, spans in %s\n", w.Name, t.Attempted, t.Failed, t.TraceFile)
			printValues(w.Name, bench.PerLayer, t.Values)
			ok = report(w.Name, t.Problems) && ok
			if last, err = bench.NewResult(bench.PerLayer, t.Values, t.Checks); err != nil {
				return false, err
			}
		}
	}
	if len(workloads) == 1 && *trace >= 0 {
		line, err := json.Marshal(last)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return ok, nil
}

func printValues(workload string, list []bench.Metric, v *bench.Values) {
	for _, m := range list {
		val, ok := v.V[m.Name]
		if !ok {
			continue
		}
		exact := ""
		if bench.Exact[m.Name] {
			exact = " exact"
		}
		fmt.Printf("  %-14s %-40s %16.6g %-6s n=%d%s\n", workload, m.Name, val, m.Unit, v.N[m.Name], exact)
	}
}

func report(workload string, problems []string) bool {
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", workload, p)
	}
	return len(problems) == 0
}
