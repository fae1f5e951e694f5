// Command quickstart shows the minimal grant/deny flow of the
// (M,W)-Controller: a small tree grows and shrinks under the controlled
// dynamic model, and the run prints what was granted, what was rejected,
// and what the whole thing cost in messages.
package main

import (
	"fmt"
	"log"

	"dynctrl"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, root := dynctrl.NewTree()

	// An (M,W) = (12, 2) controller: at most 12 events will ever be
	// permitted, and if anything is rejected, at least 10 events were
	// permitted. Its packages move as messages through a scheduler seeded
	// with 42.
	ctl := dynctrl.NewController(tr, dynctrl.Simulated(42), 12, 2)

	// Grow a small tree: every change asks for a permit first.
	var nodes []dynctrl.NodeID
	for i := 0; i < 6; i++ {
		parent := root
		if len(nodes) > 0 {
			parent = nodes[len(nodes)-1]
		}
		g, err := ctl.Submit(dynctrl.Request{Node: parent, Kind: dynctrl.AddLeaf})
		if err != nil {
			return fmt.Errorf("add leaf: %w", err)
		}
		fmt.Printf("add-leaf under %d -> %v (new node %d)\n", parent, g.Outcome, g.NewNode)
		nodes = append(nodes, g.NewNode)
	}

	// Split an edge (insert an internal node) and then undo it.
	g, err := ctl.Submit(dynctrl.Request{
		Node: root, Kind: dynctrl.AddInternal, Child: nodes[0],
	})
	if err != nil {
		return fmt.Errorf("add internal: %w", err)
	}
	fmt.Printf("add-internal above %d -> %v (new node %d)\n", nodes[0], g.Outcome, g.NewNode)

	g, err = ctl.Submit(dynctrl.Request{Node: g.NewNode, Kind: dynctrl.RemoveInternal})
	if err != nil {
		return fmt.Errorf("remove internal: %w", err)
	}
	fmt.Printf("remove-internal -> %v\n", g.Outcome)

	// Burn through the remaining permits with non-topological events;
	// the controller starts rejecting when M is exhausted.
	for i := 0; i < 8; i++ {
		g, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None})
		if err != nil {
			return fmt.Errorf("event: %w", err)
		}
		fmt.Printf("event %d -> %v\n", i, g.Outcome)
	}

	fmt.Printf("\ntree size: %d\n", tr.Size())
	fmt.Printf("counters:  %s\n", ctl.Counters())
	return nil
}
