// Command controllersim runs the distributed (M,W)-Controller on a
// synthetic churn scenario and prints the cost summary.
//
// Usage:
//
//	controllersim -n0 256 -m 4096 -w 64 -requests 8192 -mix churn -seed 1
//
// Mixes: churn (default), grow, shrink, events.
package main

import (
	"flag"
	"fmt"
	"os"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func main() {
	var (
		n0       = flag.Int("n0", 256, "initial tree size")
		m        = flag.Int64("m", 4096, "permit budget M")
		w        = flag.Int64("w", 64, "waste parameter W")
		requests = flag.Int("requests", 8192, "maximum requests to submit")
		mix      = flag.String("mix", "churn", "workload mix: churn|grow|shrink|events")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*n0, *m, *w, *requests, *mix, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(n0 int, m, w int64, requests int, mixName string, seed int64) error {
	var mix workload.Mix
	switch mixName {
	case "churn":
		mix = workload.DefaultMix()
	case "grow":
		mix = workload.GrowOnlyMix()
	case "shrink":
		mix = workload.ShrinkHeavyMix()
	case "events":
		mix = workload.EventOnlyMix()
	default:
		return fmt.Errorf("unknown mix %q", mixName)
	}

	tr, _ := tree.New()
	if err := workload.BuildBalanced(tr, n0, seed); err != nil {
		return err
	}
	rt := sim.NewDeterministic(seed)
	tp := dist.Over(rt)
	counters := stats.NewCounters()
	ctl := tp.NewDynamic(tr, m, w, controller.WithDynamicCounters(counters))
	gen := workload.NewChurn(tr, mix, seed+1)
	gen.SetMinSize(maxInt(2, n0/8))

	res, err := workload.Run(ctl, gen, requests)
	if err != nil {
		return err
	}

	fmt.Printf("scenario     : n0=%d M=%d W=%d mix=%s seed=%d\n", n0, m, w, mixName, seed)
	fmt.Printf("submitted    : %d requests (granted %d, rejected %d)\n",
		res.Submitted, res.Granted, res.Rejected)
	fmt.Printf("final tree   : %d nodes (ever existed %d, height %d)\n",
		tr.Size(), tr.EverExisted(), tr.Height())
	fmt.Printf("iterations   : %d (unknown-U restarts)\n", ctl.Iterations())
	fmt.Printf("messages     : %d transport + %d control = %d total\n",
		rt.Messages(), counters.Get(tp.Counter), tp.Cost(counters))
	if ch := counters.Get(stats.CounterTopoChanges); ch > 0 {
		fmt.Printf("amortized    : %.1f messages per applied topological change\n",
			float64(tp.Cost(counters))/float64(ch))
	}
	if res.Granted > int(m) {
		return fmt.Errorf("SAFETY VIOLATION: granted %d > M=%d", res.Granted, m)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
