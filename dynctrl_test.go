package dynctrl_test

import (
	"errors"
	"testing"

	"dynctrl"
)

func TestPublicQuickstartFlow(t *testing.T) {
	tr, root := dynctrl.NewTree()
	rt := dynctrl.NewRuntime(1)
	counters := dynctrl.NewCounters()
	ctl := dynctrl.NewControllerWithCounters(tr, rt, 20, 4, counters)

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
}

func TestPublicEstimatorAndLabels(t *testing.T) {
	tr, root := dynctrl.NewTree()
	est, err := dynctrl.NewEstimator(tr, dynctrl.NewRuntime(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []dynctrl.NodeID
	for i := 0; i < 30; i++ {
		g, err := est.RequestChange(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
		if err != nil {
			t.Fatalf("grow: %v", err)
		}
		leaves = append(leaves, g.NewNode)
	}
	e, err := est.Estimate(root)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(tr.Size())
	if e < n/2 || e > 2*n {
		t.Fatalf("estimate %d outside [n/2, 2n] for n=%d", e, n)
	}

	scheme := dynctrl.BuildAncestryLabels(tr)
	lr, err := scheme.Label(root)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := scheme.Label(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if lr.Pre > ll.Pre || ll.Post > lr.Post {
		t.Fatal("root label must contain leaf label")
	}
}

func TestPublicNamingAndHeavyChild(t *testing.T) {
	tr, root := dynctrl.NewTree()
	nm := dynctrl.NewNaming(tr, dynctrl.NewRuntime(3))
	for i := 0; i < 20; i++ {
		if _, err := nm.RequestChange(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf}); err != nil {
			t.Fatalf("naming grow: %v", err)
		}
	}
	if err := nm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	tr2, root2 := dynctrl.NewTree()
	hc, err := dynctrl.NewHeavyChild(tr2, dynctrl.NewRuntime(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := hc.RequestChange(dynctrl.Request{Node: root2, Kind: dynctrl.AddLeaf}); err != nil {
			t.Fatalf("hc grow: %v", err)
		}
	}
	if _, err := hc.Heavy(root2); err != nil {
		t.Fatalf("root should have a heavy child: %v", err)
	}
}

func TestPublicMajority(t *testing.T) {
	p, tr, err := dynctrl.NewMajority(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	for !p.Decided() {
		if _, err := p.Join(tr.Root()); err != nil {
			if errors.Is(err, dynctrl.ErrTerminated) {
				break
			}
			t.Fatalf("join: %v", err)
		}
	}
	if !p.Decided() {
		t.Fatal("majority never committed")
	}
}

func TestPublicConcurrentRuntime(t *testing.T) {
	tr, root := dynctrl.NewTree()
	rt := dynctrl.NewConcurrentRuntime(4)
	ctl := dynctrl.NewController(tr, rt, 50, 10)
	for i := 0; i < 10; i++ {
		g, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
		if err != nil || g.Outcome != dynctrl.Granted {
			t.Fatalf("add leaf %d: %v %v", i, g.Outcome, err)
		}
	}
	if tr.Size() != 11 {
		t.Fatalf("size = %d, want 11", tr.Size())
	}
}

func TestPublicNCAAndDistanceLabels(t *testing.T) {
	tr, root := dynctrl.NewTree()
	ctl := dynctrl.NewController(tr, dynctrl.NewRuntime(6), 200, 20)
	// Build a small two-branch tree through the controller.
	var left, right dynctrl.NodeID
	g, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
	if err != nil {
		t.Fatal(err)
	}
	left = g.NewNode
	g, err = ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
	if err != nil {
		t.Fatal(err)
	}
	right = g.NewNode
	g, err = ctl.Submit(dynctrl.Request{Node: left, Kind: dynctrl.AddLeaf})
	if err != nil {
		t.Fatal(err)
	}
	deep := g.NewNode

	nca := dynctrl.BuildNCALabels(tr)
	la, err := nca.Label(deep)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := nca.Label(right)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := dynctrl.QueryNCA(la, lb)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := nca.NodeAt(pre); !ok || id != root {
		t.Fatalf("NCA(deep, right) = node %d, want root %d", id, root)
	}

	dl := dynctrl.BuildDistanceLabels(tr)
	da, err := dl.Label(deep)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dl.Label(right)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynctrl.QueryDistance(da, db)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("distance(deep, right) = %d, want 3", d)
	}
}

func TestPublicPipeline(t *testing.T) {
	tr, root := dynctrl.NewTree()
	rt := dynctrl.NewRuntime(7)
	ctl := dynctrl.NewController(tr, rt, 500, 100)
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
