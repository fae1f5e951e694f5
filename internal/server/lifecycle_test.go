package server

// Connection-lifecycle regression tests, driven through the
// internal/faultnet proxy: slow-loris peers must be reaped by the
// handshake and idle deadlines instead of parking a goroutine forever,
// and a connection that dies mid-frame must release its tenant binding
// without accounting the partial batch.

import (
	"errors"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/faultnet"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// startProxy fronts the server with a faultnet proxy for one test.
func startProxy(t *testing.T, upstream string, rules []faultnet.Rule) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.Start(faultnet.Config{Upstream: upstream, Seed: 1, Rules: rules, Logf: t.Logf})
	if err != nil {
		t.Fatalf("faultnet.Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// waitLifecycle polls the first tenant's connection counters until cond
// holds or the deadline passes.
func waitLifecycle(t *testing.T, s *Server, what string, cond func(open, total, idle int64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := s.Tenants()[0]
		if cond(v.ConnsOpen, v.ConnsTotal, v.IdleTimeouts) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still open=%d total=%d idleTimeouts=%d", what, v.ConnsOpen, v.ConnsTotal, v.IdleTimeouts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A peer whose handshake is clean but whose next Submit frame dribbles
// byte by byte must be reaped by the rolling idle deadline — before the
// fix the server cleared its read deadline after the handshake, so a
// slow-loris connection parked its serve goroutine forever and the
// dribbled frame was eventually served as if the network were healthy.
func TestIdleTimeoutReapsSlowLoris(t *testing.T) {
	s := startServer(t, Config{
		Tenants:     oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1, 1000, 100),
		IdleTimeout: 250 * time.Millisecond,
	})
	// c2s frame 0 is the Hello; frame 1, the first Submit, dribbles one
	// byte per 100ms — far slower than the 250ms idle deadline allows.
	p := startProxy(t, s.Addr(), []faultnet.Rule{
		{Kind: faultnet.SlowLoris, Dir: faultnet.ClientToServer, Conn: 0, Frame: 1,
			Delay: 100 * time.Millisecond, Chunk: 1},
	})

	cl, err := client.Dial(p.Addr(), client.Options{Conns: 1})
	if err != nil {
		t.Fatalf("Dial through proxy: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1) //nolint:errcheck
	if _, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err == nil {
		t.Fatal("Submit through a dribbling connection succeeded; the server served a slow-loris frame")
	}

	waitLifecycle(t, s, "slow-loris conn not reaped",
		func(open, total, idle int64) bool { return open == 0 && total == 1 && idle >= 1 })
	if v := s.Tenants()[0]; v.Ops != 0 || v.Grants != 0 {
		t.Fatalf("partial slow-loris frame was accounted: ops=%d grants=%d", v.Ops, v.Grants)
	}
}

// A peer that dribbles the Hello itself must be cut by the handshake
// deadline, and the aborted handshake must never bind a tenant.
func TestHandshakeDeadlineReapsSlowHello(t *testing.T) {
	s := startServer(t, Config{
		Tenants:          oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1, 1000, 100),
		HandshakeTimeout: 300 * time.Millisecond,
	})
	p := startProxy(t, s.Addr(), []faultnet.Rule{
		{Kind: faultnet.SlowLoris, Dir: faultnet.ClientToServer, Conn: 0, Frame: 0,
			Delay: 100 * time.Millisecond, Chunk: 1},
	})

	t0 := time.Now()
	_, err := client.Dial(p.Addr(), client.Options{Conns: 1, DialTimeout: 30 * time.Second})
	if err == nil {
		t.Fatal("Dial with a dribbled Hello succeeded")
	}
	if !errors.Is(err, client.ErrHandshake) {
		t.Fatalf("Dial error %v, want ErrHandshake", err)
	}
	// The server's deadline, not the client's generous one, must have cut
	// the connection.
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("handshake took %v to fail; the server never cut the dribbling peer", elapsed)
	}
	waitLifecycle(t, s, "half-shaken conn left bound",
		func(open, total, idle int64) bool { return open == 0 && total == 0 })
}

// A connection killed mid-frame must release its tenant binding and the
// truncated Submit batch must not move the accounting.
func TestTruncatedFrameReleasesBinding(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1, 1000, 100),
	})
	p := startProxy(t, s.Addr(), []faultnet.Rule{
		{Kind: faultnet.KillMidFrame, Dir: faultnet.ClientToServer, Conn: 0, Frame: 1},
	})

	cl, err := client.Dial(p.Addr(), client.Options{Conns: 1})
	if err != nil {
		t.Fatalf("Dial through proxy: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1) //nolint:errcheck
	reqs := make([]controller.Request, 32)
	for i := range reqs {
		reqs[i] = controller.Request{Node: tr.Root(), Kind: tree.None}
	}
	if _, err := cl.SubmitMany(reqs, nil); err == nil {
		t.Fatal("SubmitMany over a mid-frame-killed connection succeeded")
	}

	waitLifecycle(t, s, "mid-frame-killed conn left bound",
		func(open, total, idle int64) bool { return open == 0 && total == 1 })
	if v := s.Tenants()[0]; v.Ops != 0 || v.Grants != 0 {
		t.Fatalf("truncated batch was accounted: ops=%d grants=%d", v.Ops, v.Grants)
	}
}
