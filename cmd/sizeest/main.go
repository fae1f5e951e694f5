// Command sizeest demonstrates the size-estimation protocol live: it runs
// churn over a tree and periodically prints the true size against the
// estimate every node currently holds, together with the β-approximation
// envelope.
//
// Usage:
//
//	sizeest -n0 64 -beta 2 -changes 2000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/estimator"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func main() {
	var (
		n0      = flag.Int("n0", 64, "initial tree size")
		beta    = flag.Float64("beta", 2, "approximation parameter β (>1)")
		changes = flag.Int("changes", 2000, "topological changes to apply")
		seed    = flag.Int64("seed", 7, "random seed")
	)
	flag.Parse()
	if err := run(*n0, *beta, *changes, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(n0 int, beta float64, changes int, seed int64) error {
	tr, _ := tree.New()
	if err := workload.BuildBalanced(tr, n0, seed); err != nil {
		return err
	}
	tp := dist.Over(sim.NewDeterministic(seed))
	counters := stats.NewCounters()
	est, err := estimator.New(tr, tp, beta, estimator.WithCounters(counters))
	if err != nil {
		return err
	}
	gen := workload.NewChurn(tr, workload.DefaultMix(), seed+1)
	gen.SetMinSize(maxInt(2, n0/8))

	applied := 0
	report := changes / 10
	if report < 1 {
		report = 1
	}
	fmt.Printf("%-8s %-8s %-10s %-22s %s\n", "changes", "true n", "estimate", "β-envelope", "iteration")
	for applied < changes {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := est.RequestChange(req)
		if err != nil {
			return err
		}
		if g.Outcome != controller.Granted || req.Kind == tree.None {
			continue
		}
		applied++
		if applied%report == 0 {
			n := tr.Size()
			e, err := est.Estimate(tr.Root())
			if err != nil {
				return err
			}
			lo := float64(e) / beta
			hi := float64(e) * beta
			mark := "ok"
			if float64(n) < lo-1e-9 || float64(n) > hi+1e-9 {
				mark = "VIOLATION"
			}
			fmt.Printf("%-8d %-8d %-10d [%.0f, %.0f] %-6s it=%d\n",
				applied, n, e, lo, hi, mark, est.Iteration())
		}
	}
	total := tp.Cost(counters)
	fmt.Printf("\nmessages: %d total, %.1f per change (log²n = %.0f at n=%d)\n",
		total, float64(total)/float64(applied),
		stats.Log2(float64(tr.Size()))*stats.Log2(float64(tr.Size())), tr.Size())
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
