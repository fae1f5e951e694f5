// Command scenario sweeps the adversarial scenario catalog across the
// transport scheduler catalog with the oracle invariant checkers always on,
// and emits the result matrix as JSON.
//
// Usage:
//
//	scenario -list
//	scenario                                  # full catalog × all schedulers
//	scenario -run 'churn|hotspot' -sched lifo,window -seed 7
//	scenario -long -out SCENARIOS.json        # nightly-sized sweep
//
// Every run is reproducible from the printed (scenario, scheduler, seed)
// triple. The process exits 1 if any run reports an oracle violation or a
// request error, so the command doubles as a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"dynctrl/internal/scenario"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list catalog scenarios and schedulers, then exit")
	run := flag.String("run", "", "regexp selecting scenarios by name (default: all)")
	sched := flag.String("sched", "all", "comma-separated scheduler names, or \"all\" (includes the concurrent runtime)")
	seed := flag.Int64("seed", 1, "seed; every run is reproducible from (scenario, scheduler, seed)")
	long := flag.Bool("long", false, "use each scenario's long request count (nightly sweep size)")
	out := flag.String("out", "", "also write the JSON report to this path")
	flag.Parse()

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range workload.Catalog() {
			fmt.Printf("  %-24s %s\n", sc.Name, sc.Notes)
		}
		fmt.Printf("schedulers: %s\n", strings.Join(sim.RuntimeNames(), ", "))
		return
	}

	scenarios := workload.Catalog()
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fatalf("bad -run regexp: %v", err)
		}
		var keep []workload.Scenario
		for _, sc := range scenarios {
			if re.MatchString(sc.Name) {
				keep = append(keep, sc)
			}
		}
		scenarios = keep
	}
	if len(scenarios) == 0 {
		fatalf("no scenarios match -run %q", *run)
	}

	schedulers := sim.RuntimeNames()
	if *sched != "all" {
		schedulers = strings.Split(*sched, ",")
	}

	results, err := scenario.Sweep(scenarios, schedulers, *seed, *long)
	if err != nil {
		fatalf("%v", err)
	}

	report := struct {
		Schema  int               `json:"schema"`
		Seed    int64             `json:"seed"`
		Long    bool              `json:"long"`
		Results []scenario.Result `json:"results"`
	}{Schema: 1, Seed: *seed, Long: *long, Results: results}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}

	tbl := stats.NewTable(fmt.Sprintf("scenario sweep (seed %d)", *seed),
		"scenario", "scheduler", "requests", "granted", "rejected", "crashes", "messages", "violations")
	bad := 0
	for _, res := range results {
		tbl.AddRow(res.Scenario, res.Scheduler, res.Requests, res.Granted, res.Rejected,
			res.Crashes, res.TransportMessages+res.ControlMessages, len(res.Violations))
		if len(res.Violations) > 0 || res.Errors > 0 {
			bad++
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "VIOLATION %s × %s seed=%d: %s\n",
					res.Scenario, res.Scheduler, res.Seed, v)
			}
			if res.Errors > 0 {
				fmt.Fprintf(os.Stderr, "ERRORS %s × %s seed=%d: %d request errors\n",
					res.Scenario, res.Scheduler, res.Seed, res.Errors)
			}
		}
	}
	fmt.Fprint(os.Stderr, tbl.String())
	if bad > 0 {
		fatalf("%d of %d runs reported violations or errors", bad, len(results))
	}
	fmt.Fprintf(os.Stderr, "scenario: %d runs clean (reproduce any run with -seed %d)\n", len(results), *seed)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scenario: "+format+"\n", args...)
	os.Exit(1)
}
