package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// oneTenant declares the daemon's default namespace alone.
func oneTenant(spec workload.TopologySpec, seed, m, w int64) []server.TenantConfig {
	return []server.TenantConfig{{Name: wire.DefaultTenant, Topology: spec, Seed: seed, M: m, W: w}}
}

// startServer runs a loopback daemon for the client under test.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

func TestDialRefusedAddress(t *testing.T) {
	// A port nothing listens on: dial must fail, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := client.Dial(addr, client.Options{DialTimeout: 2 * time.Second}); err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
}

func TestDialVersionMismatch(t *testing.T) {
	// A fake server that always answers the handshake with a version error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				var rbuf []byte
				if _, _, err := wire.ReadFrame(bufio.NewReader(nc), &rbuf); err != nil {
					return
				}
				nc.Write(wire.AppendError(nil, wire.ErrorFrame{ //nolint:errcheck
					Code: wire.CodeVersion, Detail: "too old",
				}))
			}(nc)
		}
	}()
	if _, err := client.Dial(ln.Addr().String(), client.Options{DialTimeout: 2 * time.Second}); err == nil {
		t.Fatal("Dial against a version-rejecting server succeeded")
	}
}

func TestPooledFailover(t *testing.T) {
	s := startServer(t, server.Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1, 10000, 1000),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1) //nolint:errcheck
	root := tr.Root()

	// Poison one pooled connection at the protocol level: the server drops
	// it, and subsequent submissions must fail over to the live ones.
	if _, err := cl.Submit(controller.Request{Node: root, Kind: tree.None}); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}
	cl.BreakConnForTest(0)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 50; i++ {
		if _, err := cl.Submit(controller.Request{Node: root, Kind: tree.None}); err != nil {
			t.Fatalf("submit %d after poisoning one connection: %v", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("failover loop ran too long")
		}
	}
}

func TestConcurrentPipelining(t *testing.T) {
	s := startServer(t, server.Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 32}, 1, 1<<20, 1<<19),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 32}, 1) //nolint:errcheck
	root := tr.Root()

	// Many goroutines share two connections: responses must route back to
	// the right callers (every answered batch has the right length and
	// outcome).
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1 + g%7
			reqs := make([]controller.Request, n)
			for i := range reqs {
				reqs[i] = controller.Request{Node: root, Kind: tree.None}
			}
			var out []controller.BatchResult
			for i := 0; i < 60; i++ {
				res, err := cl.SubmitMany(reqs, out[:0])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(res) != n {
					t.Errorf("goroutine %d: %d results for %d requests", g, len(res), n)
					return
				}
				for _, r := range res {
					if r.Err != nil || r.Grant.Outcome != controller.Granted {
						t.Errorf("goroutine %d: result %+v", g, r)
						return
					}
				}
				out = res
			}
		}(g)
	}
	wg.Wait()

	v := s.Tenants()[0]
	if v.Errors != 0 {
		t.Errorf("server accounted %d errors", v.Errors)
	}
	if v.Ops != v.Grants {
		t.Errorf("server accounted ops=%d grants=%d on an all-grant workload", v.Ops, v.Grants)
	}
}

func TestSubmitManyChunksOversizedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("drives >wire.MaxBatchLen requests")
	}
	s := startServer(t, server.Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "star", Nodes: 8}, 1, int64(wire.MaxBatchLen)*2, int64(wire.MaxBatchLen)),
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "star", Nodes: 8}, 1) //nolint:errcheck
	root := tr.Root()

	// A run longer than one frame may carry must be split transparently,
	// not kill the connection with an oversized frame.
	n := wire.MaxBatchLen + 50
	reqs := make([]controller.Request, n)
	for i := range reqs {
		reqs[i] = controller.Request{Node: root, Kind: tree.None}
	}
	res, err := cl.SubmitMany(reqs, nil)
	if err != nil {
		t.Fatalf("SubmitMany(%d): %v", n, err)
	}
	if len(res) != n {
		t.Fatalf("%d results for %d requests", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil || r.Grant.Outcome != controller.Granted {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	// The connection survived the oversized run.
	if _, err := cl.Submit(controller.Request{Node: root, Kind: tree.None}); err != nil {
		t.Fatalf("Submit after chunked run: %v", err)
	}
}

func TestNoRetryAfterAttemptedRoundTrip(t *testing.T) {
	s := startServer(t, server.Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "star", Nodes: 8}, 1, 10000, 1000),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "star", Nodes: 8}, 1) //nolint:errcheck
	root := tr.Root()

	// Freeze the daemon's reply by breaking the connection after the write:
	// the in-flight call must surface an error, and — the at-most-once
	// contract — the server-side accounting must show the batch executed at
	// most once (never replayed on the second pooled connection).
	errc := make(chan error, 1)
	go func() {
		reqs := make([]controller.Request, 64)
		for i := range reqs {
			reqs[i] = controller.Request{Node: root, Kind: tree.None}
		}
		_, err := cl.SubmitMany(reqs, nil)
		errc <- err
	}()
	// Give the write a moment to leave, then kill both connections so the
	// reply (or the call, if it raced the break) is lost.
	time.Sleep(20 * time.Millisecond)
	cl.BreakConnForTest(0)
	cl.BreakConnForTest(1)
	err = <-errc

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck
	ops := s.Tenants()[0].Ops
	if err == nil {
		// The reply won the race: the batch executed exactly once.
		if ops != 64 {
			t.Fatalf("call succeeded but server accounted %d ops, want 64", ops)
		}
		return
	}
	if ops != 0 && ops != 64 {
		t.Fatalf("server accounted %d ops for one 64-request call: the batch was replayed", ops)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := startServer(t, server.Config{
		Tenants: oneTenant(workload.TopologySpec{Kind: "star", Nodes: 4}, 0, 100, 10),
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cl.Close()
	if _, err := cl.Submit(controller.Request{}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Submit after Close: err %v, want ErrClosed", err)
	}
	if _, err := cl.SubmitMany(make([]controller.Request, 2), nil); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("SubmitMany after Close: err %v, want ErrClosed", err)
	}
}

func TestResultErrorMessages(t *testing.T) {
	for code, want := range map[uint8]string{
		wire.CodeShutdown:   "dynctrld: server draining",
		wire.CodeTerminated: "dynctrld: controller terminated",
		wire.CodeBadRequest: "dynctrld: bad request",
		wire.CodeInternal:   "dynctrld: internal server error",
		200:                 "dynctrld: error code 200",
	} {
		e := &client.ResultError{Code: code}
		if e.Error() != want {
			t.Errorf("code %d: %q, want %q", code, e.Error(), want)
		}
	}
}
