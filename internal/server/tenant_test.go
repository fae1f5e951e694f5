package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// twoTenantConfig serves a big "team-a" namespace and a small "team-b"
// one with visibly different contracts and topologies.
func twoTenantConfig() server.Config {
	return server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{
			{Name: "team-a", Topology: tree.Shape{Kind: "balanced", Nodes: 64}, Seed: 11, M: 50_000, W: 25_000},
			{Name: "team-b", Topology: tree.Shape{Kind: "star", Nodes: 4}, Seed: 22, M: 100, W: 10},
		},
	}
}

func startTenantServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

// tenantView returns the named tenant's view.
func tenantView(t *testing.T, s *server.Server, name string) server.TenantView {
	t.Helper()
	for _, v := range s.Tenants() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no tenant %q", name)
	return server.TenantView{}
}

func TestMultiTenantHandshake(t *testing.T) {
	s := startTenantServer(t, twoTenantConfig())

	ca, err := client.Dial(s.Addr(), client.Options{Tenant: "team-a"})
	if err != nil {
		t.Fatalf("dial team-a: %v", err)
	}
	defer ca.Close()
	cb, err := client.Dial(s.Addr(), client.Options{Tenant: "team-b"})
	if err != nil {
		t.Fatalf("dial team-b: %v", err)
	}
	defer cb.Close()

	if ca.Tenant() != "team-a" || ca.M() != 50_000 || ca.W() != 25_000 {
		t.Fatalf("team-a handshake: tenant %q M=%d W=%d", ca.Tenant(), ca.M(), ca.W())
	}
	if cb.Tenant() != "team-b" || cb.M() != 100 || cb.W() != 10 {
		t.Fatalf("team-b handshake: tenant %q M=%d W=%d", cb.Tenant(), cb.M(), cb.W())
	}
	// The Welcome carries the tenant's own topology signature, not some
	// global one.
	sigA, sigB := tenantView(t, s, "team-a").TopologySignature, tenantView(t, s, "team-b").TopologySignature
	if ca.TopologySignature() != sigA || cb.TopologySignature() != sigB ||
		ca.TopologySignature() == cb.TopologySignature() {
		t.Fatalf("topology signatures: a=%d b=%d (server: a=%d b=%d)",
			ca.TopologySignature(), cb.TopologySignature(), sigA, sigB)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	s := startTenantServer(t, twoTenantConfig())
	_, err := client.Dial(s.Addr(), client.Options{Tenant: "nobody"})
	var he *client.HandshakeError
	if !errors.As(err, &he) || he.Code != wire.CodeTenant {
		t.Fatalf("dialing unknown tenant: err %v, want HandshakeError(CodeTenant)", err)
	}
}

func TestMalformedTenantNameRejected(t *testing.T) {
	s := startTenantServer(t, twoTenantConfig())
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Hand-build a v3 Hello whose tenant name fails wire.ValidTenant.
	bad := "Not-Valid!"
	var enc []byte
	enc = append(enc, 0, 0, 0, byte(1+2+2+len(bad)), byte(wire.FrameHello))
	enc = append(enc, byte(wire.Version), byte(wire.Version>>8))
	enc = append(enc, byte(len(bad)), byte(len(bad)>>8))
	enc = append(enc, bad...)
	if _, err := nc.Write(enc); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var rbuf []byte
	ft, p, err := wire.ReadFrame(bufio.NewReader(nc), &rbuf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if ft != wire.FrameError {
		t.Fatalf("frame %v, want error", ft)
	}
	if e, _ := wire.DecodeError(p); e.Code != wire.CodeTenant {
		t.Fatalf("error code %d, want CodeTenant", e.Code)
	}
}

// TestTenantScopeEnforcedBothDirections checks namespace enforcement in
// both directions: traffic on either tenant's connection lands only in
// that tenant's namespace — the other tenant's tree is unreachable and
// its accounting unmoved.
func TestTenantScopeEnforcedBothDirections(t *testing.T) {
	s := startTenantServer(t, twoTenantConfig())

	ca, err := client.Dial(s.Addr(), client.Options{Tenant: "team-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(s.Addr(), client.Options{Tenant: "team-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	// Rebuild each tenant's tree locally to learn its node ids.
	ta, _ := tree.New()
	if err := tree.Build(ta, tree.Shape{Kind: "balanced", Nodes: 64}, 11); err != nil {
		t.Fatal(err)
	}
	tb, _ := tree.New()
	if err := tree.Build(tb, tree.Shape{Kind: "star", Nodes: 4}, 22); err != nil {
		t.Fatal(err)
	}
	// A node id that exists in team-a's 64-node tree but not in team-b's
	// 4-node tree.
	var aOnly tree.NodeID
	for _, id := range ta.Nodes() {
		if id > 4 {
			aOnly = id
			break
		}
	}
	if aOnly == tree.InvalidNode {
		t.Fatal("no a-only node id found")
	}

	// Direction 1: team-b's connection cannot touch team-a's node — the
	// request is answered inside team-b's namespace (where the id is
	// unknown) with a typed per-request error, and team-a's controller
	// never sees it.
	grantedABefore := tenantView(t, s, "team-a").CtlGrants
	_, err = cb.Submit(controller.Request{Node: aOnly, Kind: tree.None})
	var re *client.ResultError
	if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("team-b touching team-a's node: err %v, want ResultError(CodeBadRequest)", err)
	}
	if got := tenantView(t, s, "team-a").CtlGrants; got != grantedABefore {
		t.Fatalf("team-b's request moved team-a's controller: %d -> %d", grantedABefore, got)
	}

	// Direction 2: team-a's traffic lands only in team-a's accounting;
	// team-b's stays untouched (and vice versa for the error above).
	for i := 0; i < 5; i++ {
		if _, err := ca.Submit(controller.Request{Node: ta.Root(), Kind: tree.None}); err != nil {
			t.Fatalf("team-a submit %d: %v", i, err)
		}
	}
	if _, err := cb.Submit(controller.Request{Node: tb.Root(), Kind: tree.None}); err != nil {
		t.Fatalf("team-b submit: %v", err)
	}
	a, b := tenantView(t, s, "team-a"), tenantView(t, s, "team-b")
	if a.Ops != 5 || a.Grants != 5 || a.Errors != 0 {
		t.Fatalf("team-a accounting ops=%d grants=%d errs=%d, want 5/5/0", a.Ops, a.Grants, a.Errors)
	}
	if b.Ops != 2 || b.Grants != 1 || b.Errors != 1 {
		t.Fatalf("team-b accounting ops=%d grants=%d errs=%d, want 2/1/1", b.Ops, b.Grants, b.Errors)
	}
}

// TestLegacyVersionHandshakeTypedError pins the v2→v3 compatibility
// contract: an old-version client's tenant-less Hello gets a clean typed
// CodeVersion error — never a hang, a framing error, or a panic.
func TestLegacyVersionHandshakeTypedError(t *testing.T) {
	s := startTenantServer(t, twoTenantConfig())
	for _, version := range []uint16{1, 2} {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// AppendHello emits the legacy 2-byte tenant-less payload for
		// pre-v3 versions — exactly the bytes an old client sends.
		if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: version})); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		br := bufio.NewReader(nc)
		var rbuf []byte
		ft, p, err := wire.ReadFrame(br, &rbuf)
		if err != nil {
			t.Fatalf("v%d: read: %v", version, err)
		}
		if ft != wire.FrameError {
			t.Fatalf("v%d: frame %v, want error", version, ft)
		}
		e, err := wire.DecodeError(p)
		if err != nil {
			t.Fatalf("v%d: decode: %v", version, err)
		}
		if e.Code != wire.CodeVersion {
			t.Fatalf("v%d: error code %d, want CodeVersion", version, e.Code)
		}
		// The server hangs up after the typed refusal.
		if _, _, err := wire.ReadFrame(br, &rbuf); !errors.Is(err, io.EOF) {
			t.Fatalf("v%d: after refusal: err %v, want EOF", version, err)
		}
		nc.Close()
	}
}

// TestNoisyNeighborOverLoopback is the end-to-end noisy-neighbor
// scenario over real sockets: tenant team-a floods grow-only traffic
// through a pooled client while tenant team-b replays a pinned probe on
// its own connection. team-b's verdict trace must be bitwise identical
// to a baseline run with no neighbor at all, and both tenants' labeled
// /metricsz sections must reconcile exactly against the client tallies.
func TestNoisyNeighborOverLoopback(t *testing.T) {
	cfg := twoTenantConfig()
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.Paranoid = true
	cfg.Tenants[1].M, cfg.Tenants[1].W = 100_000, 50_000 // roomy victim contract

	// The victim's pinned probe over team-b's (reconstructible) tree.
	tb, _ := tree.New()
	if err := tree.Build(tb, cfg.Tenants[1].Topology, cfg.Tenants[1].Seed); err != nil {
		t.Fatal(err)
	}
	probe, err := workload.VictimProbe(tb, 400, 5)
	if err != nil {
		t.Fatal(err)
	}

	// The flooder's grow-only trace over team-a's tree: every request
	// mutates that tree and burns a permit, so any state the tenants share
	// moves the victim's verdicts at once.
	ta, _ := tree.New()
	if err := tree.Build(ta, cfg.Tenants[0].Topology, cfg.Tenants[0].Seed); err != nil {
		t.Fatal(err)
	}
	floodTrace, err := workload.NewConcurrentTrace(ta, 4, 800, workload.ConcurrentMix{AddLeaf: 100}, 6)
	if err != nil {
		t.Fatal(err)
	}

	var disturbedSrv *server.Server
	res, err := workload.RunNoisyNeighbor("team-b", cfg.Tenants[1].M, probe,
		func(disturbed bool) (controller.Submitter, func() workload.ConcurrentResult, error) {
			s := startTenantServer(t, cfg)
			victim, err := client.Dial(s.Addr(), client.Options{Tenant: "team-b"})
			if err != nil {
				return nil, nil, err
			}
			t.Cleanup(func() { victim.Close() })
			if !disturbed {
				return victim, nil, nil
			}
			disturbedSrv = s
			flooder, err := client.Dial(s.Addr(), client.Options{Tenant: "team-a", Conns: 4})
			if err != nil {
				return nil, nil, err
			}
			t.Cleanup(func() { flooder.Close() })
			return victim, func() workload.ConcurrentResult {
				return workload.RunConcurrentChunked(flooder, floodTrace, 64)
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("cross-tenant isolation violated: %v", res.Violations)
	}
	if res.Flood.Submitted != int64(floodTrace.Len()) || res.Flood.Errors != 0 {
		t.Fatalf("flood did not run cleanly: %+v", res.Flood)
	}
	if res.Baseline.Granted == 0 {
		t.Fatal("victim probe granted nothing — the check is vacuous")
	}
	for _, v := range disturbedSrv.Tenants() {
		if len(v.Violations) != 0 {
			t.Fatalf("paranoid oracles flagged the disturbed run on tenant %q: %v", v.Name, v.Violations)
		}
	}

	// Per-tenant /metricsz reconciles exactly against the client tallies
	// for both tenants.
	fields := fetchMetrics(t, disturbedSrv.MetricsAddr())
	for _, check := range []struct {
		name string
		want int64
	}{
		{`dynctrld_tenant_ops_total{tenant="team-b"}`, res.Disturbed.Submitted},
		{`dynctrld_tenant_grants_total{tenant="team-b"}`, res.Disturbed.Granted},
		{`dynctrld_tenant_rejects_total{tenant="team-b"}`, res.Disturbed.Rejected},
		{`dynctrld_tenant_errors_total{tenant="team-b"}`, 0},
		{`dynctrld_tenant_oracle_violations{tenant="team-b"}`, 0},
		{`dynctrld_tenant_ops_total{tenant="team-a"}`, res.Flood.Submitted},
		{`dynctrld_tenant_grants_total{tenant="team-a"}`, res.Flood.Granted},
		{`dynctrld_tenant_rejects_total{tenant="team-a"}`, res.Flood.Rejected},
		{`dynctrld_tenant_errors_total{tenant="team-a"}`, 0},
		{`dynctrld_tenant_oracle_violations{tenant="team-a"}`, 0},
	} {
		got, ok := fields[check.name]
		if !ok {
			t.Errorf("metricsz lacks %s", check.name)
			continue
		}
		if got != check.want {
			t.Errorf("%s = %d, client tally %d", check.name, got, check.want)
		}
	}
}

// fetchMetrics pulls /metricsz and parses the integer-valued fields.
func fetchMetrics(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			fields[name] = v
		}
	}
	return fields
}
