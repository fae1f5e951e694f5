package server_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/persist"
	"dynctrl/internal/server"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

func walConfig(t *testing.T, dir string) server.Config {
	t.Helper()
	return server.Config{
		Addr:          "127.0.0.1:0",
		Topology:      workload.TopologySpec{Kind: "balanced", Nodes: 64},
		Seed:          1,
		M:             50_000,
		W:             25_000,
		Paranoid:      true,
		WALDir:        dir,
		SnapshotEvery: 500,
		Logger:        warnLogger(t),
	}
}

// driveTraffic replays n requests of the pinned concurrent trace through a
// pooled client and returns the confirmed grant count.
func driveTraffic(t *testing.T, addr string, conns, perClient int) int64 {
	t.Helper()
	_, ct, err := workload.WireTrace(workload.Scenario{
		Name:     "recovery-test",
		Topology: workload.TopologySpec{Kind: "balanced", Nodes: 64},
		Workload: workload.WorkloadSpec{Kind: "churn", Mix: "default"},
		Requests: conns * perClient,
	}, conns, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Options{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := workload.RunConcurrentChunked(cl, ct, 64)
	if res.Errors > 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	return res.Granted
}

// TestServerCrashRecovery: hard-kill a WAL-enabled daemon under confirmed
// traffic, restart it over the same directory, and require: the
// incarnation bumps, every confirmed grant survived, the recovered daemon
// serves new traffic, granted never exceeds M across incarnations, and
// the cross-incarnation oracle is clean.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	s1, err := server.New(walConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s1.Incarnation(); got != 1 {
		t.Fatalf("first boot incarnation %d, want 1", got)
	}
	confirmed := driveTraffic(t, s1.Addr(), 4, 400)
	if confirmed == 0 {
		t.Fatal("no grants confirmed before the crash")
	}
	s1.CrashForTests()

	s2, err := server.New(walConfig(t, dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Incarnation(); got != 2 {
		t.Fatalf("second boot incarnation %d, want 2", got)
	}
	recovered := s2.ControllerGranted()
	if recovered < confirmed {
		t.Fatalf("recovered %d grants, but %d were confirmed to clients before the crash",
			recovered, confirmed)
	}

	// The restarted daemon answers the handshake with its incarnation and
	// keeps serving.
	cl, err := client.Dial(s2.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Incarnation(); got != 2 {
		t.Fatalf("welcome incarnation %d, want 2", got)
	}
	cl.Close()
	confirmed2 := driveTraffic(t, s2.Addr(), 4, 200)
	if confirmed2 == 0 {
		t.Fatal("no grants after recovery")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.ShutdownGraceful(ctx); err != nil {
		t.Fatal(err)
	}
	if v := s2.Violations(); len(v) != 0 {
		t.Fatalf("oracle violations across the restart: %v", v)
	}

	// Each tenant logs under its own subdirectory of the WAL root; a
	// single-tenant daemon uses the default namespace.
	sums, violations, err := persist.VerifyDir(filepath.Join(dir, wire.DefaultTenant), walConfig(t, dir).M)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("cross-incarnation violations: %v", violations)
	}
	if len(sums) != 2 {
		t.Fatalf("%d incarnations in history, want 2", len(sums))
	}

	// A third boot after the graceful shutdown replays nothing: the final
	// checkpoint covers the whole log.
	s3, err := server.New(walConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Incarnation(); got != 3 {
		t.Fatalf("third boot incarnation %d, want 3", got)
	}
	if got := s3.ControllerGranted(); got < recovered+confirmed2 {
		t.Fatalf("graceful restart lost grants: %d < %d", got, recovered+confirmed2)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s3.ShutdownGraceful(ctx2); err != nil {
		t.Fatal(err)
	}
}
