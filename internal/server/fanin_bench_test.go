package server_test

import (
	"context"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// benchFanin replays a fan-in workload (64 connections, 128 streams of
// chunked event-only submits) against a loopback daemon with the given
// trace-ring setting, so the observability tax can be measured and
// profiled at a fan-in bench/ does not drive yet (it uses 2 connections).
func benchFanin(b *testing.B, traceRing int) {
	const (
		nodes   = 256
		conns   = 64
		streams = 128
		perStr  = 2048
		chunk   = 128
	)
	w := int64(streams*perStr) * int64(b.N+1)
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name:     wire.DefaultTenant,
			Topology: tree.Shape{Kind: "balanced", Nodes: nodes},
			Seed:     1, M: 2 * w, W: w,
		}},
		TraceRing: traceRing,
	})
	if err != nil {
		b.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		b.Fatalf("server.Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	cl, err := client.Dial(srv.Addr(), client.Options{Conns: conns})
	if err != nil {
		b.Fatalf("client.Dial: %v", err)
	}
	defer cl.Close()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: nodes}, 1); err != nil {
		b.Fatalf("topology: %v", err)
	}
	ct, err := workload.NewConcurrentTrace(tr, streams, perStr, workload.EventOnlyConcurrentMix(), 42)
	if err != nil {
		b.Fatalf("trace: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := workload.RunConcurrentChunked(cl, ct, chunk)
		if res.Errors > 0 {
			b.Fatalf("run: %d request errors", res.Errors)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(streams*perStr*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

func BenchmarkFaninTraced(b *testing.B)   { benchFanin(b, 0) }
func BenchmarkFaninUntraced(b *testing.B) { benchFanin(b, -1) }
