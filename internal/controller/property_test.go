package controller_test

import (
	"testing"
	"testing/quick"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// quickMaxCount scales a property-test iteration budget down under -short
// so `go test -short ./...` stays fast while CI keeps the full sweep.
func quickMaxCount(full int) int {
	if testing.Short() {
		n := full / 5
		if n < 2 {
			n = 2
		}
		return n
	}
	return full
}

// TestPropertySafetyLiveness drives random (M, W, workload-seed) triples
// through the waste-halving controller and asserts the correctness
// conditions hold for every combination.
func TestPropertySafetyLiveness(t *testing.T) {
	prop := func(seed int64, mRaw, wRaw uint16) bool {
		m := int64(mRaw%2000) + 1
		w := int64(wRaw) % m
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 24}, seed); err != nil {
			return false
		}
		u := int64(24) + m + 8
		it := ctl.Centralized.NewIterated(tr, u, m, w)
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+1)
		gen.SetMinSize(4)
		granted := int64(0)
		for i := int64(0); i < 4*m+50; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			g, err := it.Submit(req)
			if err != nil {
				t.Logf("seed=%d m=%d w=%d: %v", seed, m, w, err)
				return false
			}
			if g.Outcome == ctl.Granted {
				granted++
			}
			if g.Outcome == ctl.Rejected {
				break
			}
		}
		if granted > m {
			t.Logf("seed=%d m=%d w=%d: granted %d > M", seed, m, w, granted)
			return false
		}
		if granted < m-w {
			t.Logf("seed=%d m=%d w=%d: granted %d < M-W=%d", seed, m, w, granted, m-w)
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: quickMaxCount(30)}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDomainInvariants fuzzes the fixed-U core with random
// workloads and checks the three domain invariants after every request.
func TestPropertyDomainInvariants(t *testing.T) {
	prop := func(seed int64, wRaw uint16) bool {
		tr, _ := tree.New()
		size := 40 + int(seed%5)*40
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: size}, seed); err != nil {
			return false
		}
		const requests = 150
		u := int64(size + requests + 8)
		// Random W spanning both the φ=1 and φ>1 regimes.
		w := int64(wRaw%4096) + u
		c := ctl.NewCore(tr, u, 1<<30, w)
		c.EnableDomainTracking()
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+2)
		for i := 0; i < requests; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if _, err := c.Submit(req); err != nil {
				t.Logf("seed=%d: submit: %v", seed, err)
				return false
			}
			if err := c.Domains().CheckInvariants(); err != nil {
				t.Logf("seed=%d w=%d request %d: %v", seed, w, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: quickMaxCount(20)}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDynamicConservation fuzzes the unknown-U driver: across
// iteration resets, the number of grants never exceeds M and the tree
// remains structurally valid.
func TestPropertyDynamicConservation(t *testing.T) {
	prop := func(seed int64) bool {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 12}, seed); err != nil {
			return false
		}
		const m = 600
		d := ctl.NewDynamic(tr, m, 30)
		gen := workload.NewChurn(tr, workload.DefaultMix(), seed+3)
		gen.SetMinSize(3)
		granted := 0
		for i := 0; i < 4*m; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			g, err := d.Submit(req)
			if err != nil {
				return false
			}
			if g.Outcome == ctl.Granted {
				granted++
			}
			if g.Outcome == ctl.Rejected {
				break
			}
		}
		if granted > m || granted < m-30 {
			t.Logf("seed=%d: granted %d", seed, granted)
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: quickMaxCount(15)}); err != nil {
		t.Fatal(err)
	}
}
