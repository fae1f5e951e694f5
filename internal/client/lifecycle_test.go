package client_test

// Connection-lifecycle regression tests, driven through the
// internal/faultnet proxy: a network that stops reading must trip the
// client's write deadline instead of wedging the submit path forever,
// and a handshake the network kills midway must surface a typed error
// promptly instead of hanging.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/faultnet"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
)

func startFaultProxy(t *testing.T, upstream string, rules []faultnet.Rule) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.Start(faultnet.Config{Upstream: upstream, Seed: 1, Rules: rules, Logf: t.Logf})
	if err != nil {
		t.Fatalf("faultnet.Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// A network that stops reading (here: a faultnet stall parks the proxy
// after the first Submit frame) backs TCP flow control up into the
// client's writes. Before the fix the client set no deadline outside the
// handshake, so the blocked write held the connection's write mutex
// forever and wedged every subsequent submission; now Options.WriteTimeout
// trips, the call fails with ErrWriteTimeout, and the pool moves on.
func TestWriteTimeoutOnStalledNetwork(t *testing.T) {
	s := startServer(t, server.Config{
		Tenants: oneTenant(tree.Shape{Kind: "balanced", Nodes: 16}, 1, 1<<30, 1<<29),
	})
	// The stall fires on c2s frame 1 (the first Submit): the proxy sleeps
	// holding that frame and stops reading the connection, so the
	// ~megabyte frames behind it pile into the kernel buffers until a
	// client write blocks.
	p := startFaultProxy(t, s.Addr(), []faultnet.Rule{
		{Kind: faultnet.Stall, Dir: faultnet.ClientToServer, Conn: -1, Frame: 1,
			Delay: 5 * time.Minute},
	})

	cl, err := client.Dial(p.Addr(), client.Options{Conns: 1, WriteTimeout: 750 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial through proxy: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 16}, 1) //nolint:errcheck
	// One shared max-frame-sized run; every goroutine submits it twice
	// (SubmitMany splits at MaxBatchLen) and parks on its first frame's
	// reply, so the writers together push one ~0.94 MiB frame each. There
	// must be more of them than loopback TCP can buffer, or no write ever
	// blocks and every writer waits for a reply the stall withholds: with
	// 12 writers the test wedged for its full 30 s once, and a count over
	// 80 runs beside a parallel test load showed the kernel absorbing 5 to
	// 11 frames (send buffer plus autotuned receive buffer) before a write
	// blocked. 64 writers are five times that; the surplus costs nothing,
	// its submissions find the connection already dead.
	reqs := make([]controller.Request, 2*wire.MaxBatchLen)
	for i := range reqs {
		reqs[i] = controller.Request{Node: tr.Root(), Kind: tree.None}
	}

	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < cap(errCh); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.SubmitMany(reqs, nil)
			errCh <- err
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("submissions never returned: a stalled write wedged the client")
	}
	close(errCh)

	sawWriteTimeout := false
	for err := range errCh {
		if err == nil {
			t.Fatal("a submission through the stalled proxy succeeded")
		}
		if errors.Is(err, client.ErrWriteTimeout) {
			sawWriteTimeout = true
		}
	}
	if !sawWriteTimeout {
		t.Fatal("no submission failed with ErrWriteTimeout")
	}
}

// A connection the network kills between Hello and Welcome must surface
// a prompt, typed handshake error — whether the Welcome is lost whole or
// truncated mid-frame.
func TestDialKilledMidHandshake(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faultnet.Kind
	}{
		{"welcome-lost", faultnet.Kill},
		{"welcome-truncated", faultnet.KillMidFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, server.Config{
				Tenants: oneTenant(tree.Shape{Kind: "balanced", Nodes: 16}, 1, 1000, 100),
			})
			p := startFaultProxy(t, s.Addr(), []faultnet.Rule{
				{Kind: tc.kind, Dir: faultnet.ServerToClient, Conn: 0, Frame: 0},
			})

			t0 := time.Now()
			_, err := client.Dial(p.Addr(), client.Options{Conns: 1, DialTimeout: 30 * time.Second})
			if err == nil {
				t.Fatal("Dial through a killed handshake succeeded")
			}
			if !errors.Is(err, client.ErrHandshake) {
				t.Fatalf("Dial error %v, want ErrHandshake", err)
			}
			if elapsed := time.Since(t0); elapsed > 10*time.Second {
				t.Fatalf("Dial took %v to fail; the killed handshake nearly hung", elapsed)
			}
		})
	}
}
