package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/server"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

func walConfig(t *testing.T, dir string) server.Config {
	t.Helper()
	return server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name:     wire.DefaultTenant,
			Topology: tree.Shape{Kind: "balanced", Nodes: 64},
			Seed:     1, M: 50_000, W: 25_000,
		}},
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
		Topology: tree.Shape{Kind: "balanced", Nodes: 64},
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
// serves new traffic, granted never exceeds M across incarnations, the
// cross-incarnation oracle is clean, and a graceful restart brings back
// the engine's counters exactly.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	s1, err := server.New(walConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s1.Tenants()[0].Incarnation; got != 1 {
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
	boot := s2.Tenants()[0]
	if boot.Incarnation != 2 {
		t.Fatalf("second boot incarnation %d, want 2", boot.Incarnation)
	}
	recovered := boot.CtlGrants
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
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	drained := s2.Tenants()[0]
	if v := drained.Violations; len(v) != 0 {
		t.Fatalf("oracle violations across the restart: %v", v)
	}

	// Each tenant logs under its own subdirectory of the WAL root; a
	// single-tenant daemon uses the default namespace.
	sums, violations, err := persist.VerifyDir(filepath.Join(dir, wire.DefaultTenant), walConfig(t, dir).Tenants[0].M)
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
	third := s3.Tenants()[0]
	if third.Incarnation != 3 {
		t.Fatalf("third boot incarnation %d, want 3", third.Incarnation)
	}
	if third.CtlGrants < recovered+confirmed2 {
		t.Fatalf("graceful restart lost grants: %d < %d", third.CtlGrants, recovered+confirmed2)
	}
	// The engine's counters come back exactly as the drain left them.
	counts := func(v server.TenantView) [4]int64 {
		return [4]int64{v.Moves, v.CtlGrants, v.CtlRejects, v.TopoChanges}
	}
	if got, want := counts(third), counts(drained); got != want {
		t.Fatalf("graceful restart: moves, grants, rejects, topological changes %v, before the restart %v", got, want)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s3.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestRestartUnderAnotherContractRefused: a tenant whose WAL directory was
// written under one (M, W) refuses to boot under another, naming both
// contracts, and still boots under its own.
func TestRestartUnderAnotherContractRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(t, dir)
	shutdown := func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(s) // the final checkpoint records the contract
	own := cfg.Tenants[0]
	for _, other := range [][2]int64{{own.M + 1, own.W}, {own.M, own.W - 1}} {
		tc := own
		tc.M, tc.W = other[0], other[1]
		moved := cfg
		moved.Tenants = []server.TenantConfig{tc}
		s, err := server.New(moved)
		if err == nil {
			shutdown(s)
			t.Fatalf("booted under (M=%d, W=%d) over a directory written under (M=%d, W=%d)", tc.M, tc.W, own.M, own.W)
		}
		for _, m := range []server.TenantConfig{own, tc} {
			if want := fmt.Sprintf("(M=%d, W=%d)", m.M, m.W); !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not name the contract %s", err, want)
			}
		}
	}
	s, err = server.New(cfg)
	if err != nil {
		t.Fatalf("boot under the directory's own contract: %v", err)
	}
	shutdown(s)
}

// TestRecoveryAcrossEngineSwap: a WAL directory written by the
// message-passing engine the daemon used to serve with — a snapshot plus a
// tail, then a kill -9 — boots under today's daemon. The boot replays the
// tail through the centralized engine and verifies every logged verdict;
// the requests served afterwards are answered exactly as a run that never
// crashed and never changed engines answers them, through the exhaustion
// of the contract and into the rejects.
func TestRecoveryAcrossEngineSwap(t *testing.T) {
	const (
		m, w, seed           = 450, 50, 4
		total, cut, snapshot = 600, 337, 100
	)
	spec := tree.Shape{Kind: "balanced", Nodes: 24}
	build := func() *tree.Tree {
		tr, _ := tree.New()
		if err := tree.Build(tr, spec, seed); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// The undisturbed run, on the engine the daemon serves with. It also
	// fixes the request sequence: each request names nodes the run itself
	// created, which every engine creates under the same ids.
	ref := build()
	refCtl := controller.NewDynamic(ref, m, w)
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]controller.Request, total)
	want := make([]controller.Grant, total)
	for i := range reqs {
		nodes := ref.Nodes()
		req := controller.Request{Node: nodes[rng.Intn(len(nodes))]}
		switch leaves := ref.Leaves(); rng.Intn(10) {
		case 0, 1, 2:
			req.Kind = tree.AddLeaf
		case 3:
			req = controller.Request{Node: leaves[rng.Intn(len(leaves))], Kind: tree.RemoveLeaf}
		}
		if req.Kind == tree.RemoveLeaf && req.Node == ref.Root() {
			req.Kind = tree.None
		}
		g, err := refCtl.Submit(req)
		if err != nil {
			t.Fatalf("reference request %d (%+v): %v", i, req, err)
		}
		reqs[i], want[i] = req, g
	}
	if want[cut].Outcome != controller.Granted || want[total-1].Outcome != controller.Rejected {
		t.Fatalf("trace does not cross the exhaustion after the cut: request %d %v, last %v",
			cut, want[cut].Outcome, want[total-1].Outcome)
	}

	// The old daemon: the message-passing engine over a seeded runtime, logging as the
	// guard does, checkpointing every `snapshot` effects, killed at `cut`.
	root := t.TempDir()
	eng, _, err := persist.Open(filepath.Join(root, wire.DefaultTenant), persist.Options{SnapshotEvery: snapshot})
	if err != nil {
		t.Fatal(err)
	}
	old := build()
	oldCtl := dist.Over(sim.NewDeterministic(seed)).NewDynamic(old, m, w)
	for i, req := range reqs[:cut] {
		g, err := oldCtl.Submit(req)
		if err != nil || g != want[i] {
			t.Fatalf("old engine, request %d: %+v, %v; the reference answered %+v", i, g, err, want[i])
		}
		if err := eng.CommitEffects([]controller.Request{req}, []controller.BatchResult{{Grant: g}}); err != nil {
			t.Fatal(err)
		}
		if eng.ShouldCheckpoint() {
			if err := eng.Checkpoint(eng.Capture(m, w, old, oldCtl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Abandon()

	s, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Tenants: []server.TenantConfig{{Name: wire.DefaultTenant, Topology: spec, Seed: seed, M: m, W: w}},
		Paranoid: true, WALDir: root, SnapshotEvery: snapshot, Logger: warnLogger(t),
	})
	if err != nil {
		t.Fatalf("boot over the old engine's directory: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.CrashForTests()
	v := s.Tenants()[0]
	if v.Incarnation != 2 {
		t.Fatalf("incarnation %d, want 2", v.Incarnation)
	}
	st := v.WAL
	if st.LastSnapshotIndex == 0 || st.LastSnapshotIndex >= cut {
		t.Fatalf("recovered from snapshot index %d, want one strictly inside the first %d effects", st.LastSnapshotIndex, cut)
	}
	if got, wantTail := v.RecoveredEffects, cut-int(st.LastSnapshotIndex); got != wantTail {
		t.Fatalf("replayed %d effects, want the %d after the snapshot", got, wantTail)
	}
	var granted int64
	for _, g := range want[:cut] {
		if g.Outcome == controller.Granted {
			granted++
		}
	}
	if got := v.CtlGrants; got != granted {
		t.Fatalf("recovered %d grants, the log holds %d", got, granted)
	}

	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := cut; i < total; i++ {
		g, err := cl.Submit(reqs[i])
		if err != nil || g != want[i] {
			t.Fatalf("continuation diverges at request %d (%+v): %+v, %v; the undisturbed run answered %+v",
				i, reqs[i], g, err, want[i])
		}
	}
	if v := s.Tenants()[0].Violations; len(v) != 0 {
		t.Fatalf("oracle violations across the swap: %v", v)
	}
}
