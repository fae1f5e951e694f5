// Command majoritycommit demonstrates asynchronous majority commitment
// (Section 1.3): a population of 64 replicas must commit a decision once a
// strict majority has participated, even though replicas wake up at
// unpredictable times and some leave again after voting. The root learns
// that the threshold was crossed purely from the counting controller's
// termination signal — no replica ever reports a global count.
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
	const population = 64
	p, tr, err := dynctrl.NewMajority(population, dynctrl.Simulated(11))
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	members := []dynctrl.NodeID{tr.Root()}
	wave := 0
	for !p.Decided() {
		wave++
		// A few replicas wake up...
		for i := 0; i < 5 && !p.Decided(); i++ {
			parent := members[rng.Intn(len(members))]
			id, err := p.Join(parent)
			if err != nil {
				break
			}
			members = append(members, id)
		}
		// ...and occasionally one (a leaf) departs after voting.
		if !p.Decided() && len(members) > 4 && rng.Intn(3) == 0 {
			for tries := 0; tries < 8; tries++ {
				idx := 1 + rng.Intn(len(members)-1)
				id := members[idx]
				if !tr.Contains(id) || !tr.IsLeaf(id) {
					continue
				}
				if err := p.Leave(id); err == nil {
					members = append(members[:idx], members[idx+1:]...)
				}
				break
			}
		}
		fmt.Printf("wave %2d: %2d votes cast, %2d currently connected\n",
			wave, p.Joins(), p.Awake())
	}

	fmt.Printf("\nCOMMIT: %d of %d replicas participated (majority with the root)\n",
		p.Joins()+1, population)
	fmt.Printf("messages spent: %d\n", p.Messages())
	return nil
}
