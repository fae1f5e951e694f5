package majority_test

import (
	"errors"
	"math/rand"
	"testing"

	"dynctrl/internal/dist"
	"dynctrl/internal/majority"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

func TestMajorityCommitsAtThreshold(t *testing.T) {
	const population = 100
	p, tr, err := majority.New(population, dist.Over(sim.NewDeterministic(1)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Decided() {
		t.Fatal("must not decide before any join")
	}
	parents := []tree.NodeID{tr.Root()}
	rng := rand.New(rand.NewSource(1))
	joins := 0
	for !p.Decided() {
		parent := parents[rng.Intn(len(parents))]
		id, err := p.Join(parent)
		if errors.Is(err, majority.ErrCommitted) {
			break
		}
		if err != nil {
			t.Fatalf("join %d: %v", joins, err)
		}
		joins++
		parents = append(parents, id)
		if joins > population {
			t.Fatal("never committed")
		}
	}
	if !p.Decided() {
		t.Fatal("expected commitment")
	}
	if joins != population/2 {
		t.Fatalf("committed after %d joins, want %d", joins, population/2)
	}
	// Strict majority: root + joiners > P/2.
	if p.Awake() <= population/2 {
		t.Fatalf("awake %d is not a majority of %d", p.Awake(), population)
	}
	// Post-commit joins are refused.
	if _, err := p.Join(tr.Root()); !errors.Is(err, majority.ErrCommitted) {
		t.Fatalf("post-commit join err = %v", err)
	}
}

func TestMajorityWithDepartures(t *testing.T) {
	const population = 60
	p, tr, err := majority.New(population, dist.Over(sim.NewDeterministic(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Half the needed joiners arrive, some leave again; votes stay cast.
	var members []tree.NodeID
	for i := 0; i < population/4; i++ {
		id, err := p.Join(tr.Root())
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		members = append(members, id)
	}
	for i := 0; i < len(members)/2; i++ {
		if err := p.Leave(members[i]); err != nil {
			t.Fatalf("leave: %v", err)
		}
	}
	if p.Decided() {
		t.Fatal("must not decide before threshold")
	}
	// The remaining joins complete the majority regardless of departures.
	for !p.Decided() {
		if _, err := p.Join(tr.Root()); err != nil && !errors.Is(err, majority.ErrCommitted) {
			t.Fatalf("join: %v", err)
		}
	}
	if p.Joins() != population/2 {
		t.Fatalf("joins = %d, want %d", p.Joins(), population/2)
	}
}

func TestMajorityMinorityNeverCommits(t *testing.T) {
	const population = 40
	p, tr, err := majority.New(population, dist.Over(sim.NewDeterministic(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < population/2-1; i++ {
		if _, err := p.Join(tr.Root()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if p.Decided() {
		t.Fatal("committed with only a minority awake")
	}
}

func TestMajorityValidation(t *testing.T) {
	if _, _, err := majority.New(1, dist.Over(sim.NewDeterministic(4))); err == nil {
		t.Fatal("population 1 should be rejected")
	}
	p, tr, err := majority.New(10, dist.Over(sim.NewDeterministic(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Leave(tr.Root()); err == nil {
		t.Fatal("removing the root should fail")
	}
	if p.Messages() < 0 {
		t.Fatal("message accounting broken")
	}
}
