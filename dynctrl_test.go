package dynctrl_test

import (
	"testing"

	"dynctrl"
)

// overTransports runs test once over each execution model. newTP returns a
// fresh transport for each protocol the test builds; a simulated one runs
// over a runtime seeded with seed.
func overTransports(t *testing.T, test func(t *testing.T, newTP func(seed int64) dynctrl.Transport)) {
	t.Run("centralized", func(t *testing.T) {
		test(t, func(int64) dynctrl.Transport { return dynctrl.Centralized })
	})
	t.Run("simulated", func(t *testing.T) { test(t, dynctrl.Simulated) })
}

func TestPublicQuickstartFlow(t *testing.T) {
	overTransports(t, testQuickstartFlow)
}

func testQuickstartFlow(t *testing.T, newTP func(int64) dynctrl.Transport) {
	tr, root := dynctrl.NewTree()
	tp := newTP(1)
	ctl := dynctrl.NewController(tr, tp, 20, 4)

	g, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
	if err != nil || g.Outcome != dynctrl.Granted {
		t.Fatalf("add leaf: %v %v", g.Outcome, err)
	}
	leaf := g.NewNode
	g, err = ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddInternal, Child: leaf})
	if err != nil || g.Outcome != dynctrl.Granted {
		t.Fatalf("add internal: %v %v", g.Outcome, err)
	}
	if _, err := ctl.Submit(dynctrl.Request{Node: g.NewNode, Kind: dynctrl.RemoveInternal}); err != nil {
		t.Fatalf("remove internal: %v", err)
	}
	if _, err := ctl.Submit(dynctrl.Request{Node: leaf, Kind: dynctrl.RemoveLeaf}); err != nil {
		t.Fatalf("remove leaf: %v", err)
	}
	if tr.Size() != 1 {
		t.Fatalf("size = %d, want 1", tr.Size())
	}

	granted, rejected := 4, 0
	for i := 0; i < 40; i++ {
		g, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None})
		if err != nil {
			t.Fatalf("event: %v", err)
		}
		switch g.Outcome {
		case dynctrl.Granted:
			granted++
		case dynctrl.Rejected:
			rejected++
		}
	}
	if granted > 20 {
		t.Fatalf("granted %d > M=20: safety violated", granted)
	}
	if granted < 16 {
		t.Fatalf("granted %d < M−W=16: liveness violated", granted)
	}
	if rejected == 0 {
		t.Fatal("expected rejects after exhaustion")
	}
	if got := ctl.Granted(); got != int64(granted) {
		t.Fatalf("counters hold %d grants, the controller granted %d", got, granted)
	}
	if tp.Cost(ctl.Counters()) == 0 {
		t.Fatal("a run that moved packages reports no cost")
	}
}

func TestPublicEstimatorAndLabels(t *testing.T) {
	overTransports(t, testEstimatorAndLabels)
}

func testEstimatorAndLabels(t *testing.T, newTP func(int64) dynctrl.Transport) {
	tr, root := dynctrl.NewTree()
	est, err := dynctrl.NewEstimator(tr, newTP(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := est.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf}); err != nil {
			t.Fatalf("grow: %v", err)
		}
	}
	e, err := est.Estimate(root)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(tr.Size())
	if e < n/2 || e > 2*n {
		t.Fatalf("estimate %d outside [n/2, 2n] for n=%d", e, n)
	}
}

func TestPublicNamingAndHeavyChild(t *testing.T) {
	overTransports(t, testNamingAndHeavyChild)
}

func testNamingAndHeavyChild(t *testing.T, newTP func(int64) dynctrl.Transport) {
	tr, root := dynctrl.NewTree()
	nm := dynctrl.NewNaming(tr, newTP(3))
	for i := 0; i < 20; i++ {
		if _, err := nm.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf}); err != nil {
			t.Fatalf("naming grow: %v", err)
		}
	}
	if err := nm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	tr2, root2 := dynctrl.NewTree()
	hc, err := dynctrl.NewHeavyChild(tr2, newTP(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := hc.Submit(dynctrl.Request{Node: root2, Kind: dynctrl.AddLeaf}); err != nil {
			t.Fatalf("hc grow: %v", err)
		}
	}
	if _, err := hc.Heavy(root2); err != nil {
		t.Fatalf("root should have a heavy child: %v", err)
	}
}

func TestPublicMajority(t *testing.T) {
	overTransports(t, testMajority)
}

func testMajority(t *testing.T, newTP func(int64) dynctrl.Transport) {
	p, tr, err := dynctrl.NewMajority(20, newTP(5))
	if err != nil {
		t.Fatal(err)
	}
	for !p.Decided() {
		if _, err := p.Join(tr.Root()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if !p.Decided() {
		t.Fatal("majority never committed")
	}
}

func TestPublicPipeline(t *testing.T) {
	overTransports(t, testPipeline)
}

func testPipeline(t *testing.T, newTP func(int64) dynctrl.Transport) {
	tr, root := dynctrl.NewTree()
	ctl := dynctrl.NewController(tr, newTP(7), 500, 100)
	pl := dynctrl.NewPipeline(ctl)

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := pl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	pl.Flush()
	if got := ctl.Granted(); got != 200 {
		t.Fatalf("granted %d permits, want 200", got)
	}
	pl.Close()
	if _, err := pl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None}); err == nil {
		t.Fatal("submit after Close: want error")
	}
}

func TestPublicDynamicLabelingAndRouting(t *testing.T) {
	overTransports(t, testDynamicLabelingAndRouting)
}

func testDynamicLabelingAndRouting(t *testing.T, newTP func(int64) dynctrl.Transport) {
	tr, root := dynctrl.NewTree()
	dl, err := dynctrl.NewDynamicAncestryLabeling(tr, newTP(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 34; i++ {
		g, err := dl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
		if err != nil || g.Outcome != dynctrl.Granted {
			t.Fatalf("add leaf %d: %v %v", i, g.Outcome, err)
		}
	}
	if dl.Rebuilds() < 3 {
		t.Fatalf("rebuilds = %d; growing from 1 to %d nodes should trigger several", dl.Rebuilds(), tr.Size())
	}
}
