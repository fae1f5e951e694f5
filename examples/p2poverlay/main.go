// Command p2poverlay simulates the paper's motivating scenario
// (Section 1.1): a peer-to-peer overlay dedicated to one topic, where
// peers join and leave gracefully under the controlled dynamic model. The
// overlay layer keeps three live services on top of the churn:
//
//   - every peer's β-approximate view of the overlay size (size estimation),
//   - short unique peer names in [1, 4n] (name assignment),
//   - a heavy-child decomposition usable for routing shortcuts.
//
// The simulation runs interest waves (growth), boredom waves (shrink) and
// relay insertions (internal joins), printing the services' state between
// phases.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"dynctrl"
)

type overlay struct {
	tr    *dynctrl.Tree
	est   *dynctrl.Estimator
	names *dynctrl.Naming
	hc    *dynctrl.HeavyChild
	rng   *rand.Rand
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, _ := dynctrl.NewTree()
	est, err := dynctrl.NewEstimator(tr, dynctrl.Simulated(7), 2)
	if err != nil {
		return err
	}
	trNames, _ := dynctrl.NewTree()
	trHC, _ := dynctrl.NewTree()
	hc, err := dynctrl.NewHeavyChild(trHC, dynctrl.Simulated(9))
	if err != nil {
		return err
	}
	ov := &overlay{
		tr:    tr,
		est:   est,
		names: dynctrl.NewNaming(trNames, dynctrl.Simulated(8)),
		hc:    hc,
		rng:   rand.New(rand.NewSource(7)),
	}

	fmt.Println("== interest wave: 200 peers join ==")
	if err := ov.churn(200, 0); err != nil {
		return err
	}
	ov.report()

	fmt.Println("\n== relay insertions: 30 internal joins ==")
	if err := ov.insertRelays(30); err != nil {
		return err
	}
	ov.report()

	fmt.Println("\n== boredom wave: 150 peers leave ==")
	if err := ov.churn(0, 150); err != nil {
		return err
	}
	ov.report()
	return nil
}

// churn performs joins joins and leaves leaves on all three service trees.
func (ov *overlay) churn(joins, leaves int) error {
	for i := 0; i < joins; i++ {
		if err := ov.everywhere(dynctrl.AddLeaf); err != nil {
			return err
		}
	}
	for i := 0; i < leaves; i++ {
		if err := ov.everywhere(dynctrl.RemoveLeaf); err != nil {
			return err
		}
	}
	return nil
}

// everywhere applies one matching change to each service tree (the trees
// evolve independently but through identical operations).
func (ov *overlay) everywhere(kind dynctrl.ChangeKind) error {
	for _, svc := range []struct {
		tr     *dynctrl.Tree
		submit func(dynctrl.Request) (dynctrl.Grant, error)
	}{
		{ov.tr, ov.est.Submit},
		{ov.names.Tree(), ov.names.Submit},
		{ov.hc.Tree(), ov.hc.Submit},
	} {
		req, ok := pickRequest(svc.tr, kind, ov.rng)
		if !ok {
			continue
		}
		if _, err := svc.submit(req); err != nil {
			return fmt.Errorf("%v on service tree: %w", kind, err)
		}
	}
	return nil
}

func (ov *overlay) insertRelays(n int) error {
	for i := 0; i < n; i++ {
		if err := ov.everywhere(dynctrl.AddInternal); err != nil {
			return err
		}
	}
	return nil
}

func pickRequest(tr *dynctrl.Tree, kind dynctrl.ChangeKind, rng *rand.Rand) (dynctrl.Request, bool) {
	nodes := tr.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	switch kind {
	case dynctrl.AddLeaf:
		return dynctrl.Request{Node: nodes[rng.Intn(len(nodes))], Kind: kind}, true
	case dynctrl.RemoveLeaf:
		leaves := tr.Leaves()
		sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
		for tries := 0; tries < 8 && len(leaves) > 0; tries++ {
			id := leaves[rng.Intn(len(leaves))]
			if id != tr.Root() {
				return dynctrl.Request{Node: id, Kind: kind}, true
			}
		}
	case dynctrl.AddInternal:
		for tries := 0; tries < 8; tries++ {
			child := nodes[rng.Intn(len(nodes))]
			if child == tr.Root() {
				continue
			}
			parent, err := tr.Parent(child)
			if err != nil {
				continue
			}
			return dynctrl.Request{Node: parent, Kind: kind, Child: child}, true
		}
	}
	return dynctrl.Request{}, false
}

func (ov *overlay) report() {
	root := ov.tr.Root()
	est, err := ov.est.Estimate(root)
	if err != nil {
		fmt.Printf("  estimate unavailable: %v\n", err)
		return
	}
	fmt.Printf("  true size        : %d peers\n", ov.tr.Size())
	fmt.Printf("  root's estimate  : %d (β=2 guarantee: [%d, %d] covers the truth)\n",
		est, est/2, est*2)

	namesTr := ov.names.Tree()
	maxID := int64(0)
	for _, v := range namesTr.Nodes() {
		if id, err := ov.names.ID(v); err == nil && id > maxID {
			maxID = id
		}
	}
	fmt.Printf("  names            : max id %d over %d peers (≤ 4n = %d)\n",
		maxID, namesTr.Size(), 4*namesTr.Size())

	hcTr := ov.hc.Tree()
	maxLight := 0
	for _, v := range hcTr.Nodes() {
		if la, err := ov.hc.LightAncestors(v); err == nil && la > maxLight {
			maxLight = la
		}
	}
	fmt.Printf("  heavy-child      : max light ancestors %d over %d peers\n",
		maxLight, hcTr.Size())
}
