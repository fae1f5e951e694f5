// Command ticketing demonstrates the controller on non-topological events
// (Section 2.2): a tree of ticket vendors sells a strictly bounded stock of
// M tickets. Every sale at any vendor consumes one permit; the controller
// guarantees no oversell (safety) and that, once any sale is refused, at
// least M−W tickets were actually sold (liveness) — all without the
// vendors ever synchronizing on a global counter.
//
// Vendors with hot demand are served from nearby permit packages after the
// first sale seeds their path, so the per-sale message cost drops sharply
// compared with asking the root every time.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dynctrl"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		vendors = 150
		stock   = 500
		waste   = 25
	)
	tr, root := dynctrl.NewTree()
	ctl := dynctrl.NewController(tr, dynctrl.Simulated(2026), stock+vendors, waste)

	// Open the vendor branches (each opening is itself a controlled
	// topological change and consumes a permit).
	rng := rand.New(rand.NewSource(3))
	nodes := []dynctrl.NodeID{root}
	for i := 0; i < vendors; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		g, err := ctl.Submit(dynctrl.Request{Node: parent, Kind: dynctrl.AddLeaf})
		if err != nil {
			return fmt.Errorf("open vendor: %w", err)
		}
		nodes = append(nodes, g.NewNode)
	}
	fmt.Printf("opened %d vendors (tree height %d)\n", vendors, tr.Height())

	// Sell until the stock runs out. 80%% of sales hit the 5 hottest
	// vendors, exercising package locality.
	hot := nodes[len(nodes)-5:]
	sold, refused := 0, 0
	for refused == 0 {
		vendor := hot[rng.Intn(len(hot))]
		if rng.Intn(100) >= 80 {
			vendor = nodes[rng.Intn(len(nodes))]
		}
		g, err := ctl.Submit(dynctrl.Request{Node: vendor, Kind: dynctrl.None})
		if err != nil {
			return fmt.Errorf("sale: %w", err)
		}
		switch g.Outcome {
		case dynctrl.Granted:
			sold++
		case dynctrl.Rejected:
			refused++
		}
	}

	fmt.Printf("tickets sold   : %d (stock for sales was %d; opening %d branches used the rest)\n",
		sold, stock, vendors)
	fmt.Printf("first refusal  : after all but ≤%d permits were used (W=%d)\n", waste, waste)
	fmt.Printf("oversell check : sold+opened = %d ≤ M = %d\n", sold+vendors, stock+vendors)
	fmt.Printf("cost           : %s\n", ctl.Counters())
	return nil
}
