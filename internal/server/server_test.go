package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
)

// startServer builds and starts a loopback server, tearing it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
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

// oneTenant declares the default namespace alone.
func oneTenant(spec tree.Shape, seed, m, w int64) []TenantConfig {
	return []TenantConfig{{Name: wire.DefaultTenant, Topology: spec, Seed: seed, M: m, W: w}}
}

// waitUntil polls cond until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestNewRefusesConfigWithoutTenant: Config.Tenants is the only way to
// declare a namespace, so a Config that declares none serves nothing and is
// refused.
func TestNewRefusesConfigWithoutTenant(t *testing.T) {
	if s, err := New(Config{}); err == nil {
		s.closeTenants()
		t.Fatal("New(Config{}) built a server with no tenant")
	}
}

// TestNewRefusesTraceRingAboveMax: a trace ring above obs.MaxRing is refused
// at boot rather than allocated, and the maximum itself is accepted.
func TestNewRefusesTraceRingAboveMax(t *testing.T) {
	tenants := oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 1, 10, 1)
	for _, ring := range []int{obs.MaxRing + 1, math.MaxInt} {
		if s, err := New(Config{Tenants: tenants, TraceRing: ring}); err == nil {
			s.closeTenants()
			t.Errorf("New accepted TraceRing %d above the maximum %d", ring, obs.MaxRing)
		}
	}
	s, err := New(Config{Tenants: tenants, TraceRing: obs.MaxRing})
	if err != nil {
		t.Fatalf("New with TraceRing = obs.MaxRing: %v", err)
	}
	defer s.closeTenants()
	var tracez strings.Builder
	s.writeTraces(&tracez, wire.DefaultTenant, 0)
	if want := fmt.Sprintf("(ring %d)", obs.MaxRing); !strings.Contains(tracez.String(), want) {
		t.Errorf("/tracez reads %q, want a ring of %d traces", strings.SplitN(tracez.String(), "\n", 3)[1], obs.MaxRing)
	}
}

func TestSubmitOverWire(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(tree.Shape{Kind: "balanced", Nodes: 16}, 1, 1000, 100),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	if cl.M() != 1000 || cl.W() != 100 {
		t.Fatalf("handshake contract (%d, %d), want (1000, 100)", cl.M(), cl.W())
	}
	if cl.TopologySignature() != s.Tenants()[0].TopologySignature {
		t.Fatal("handshake topology signature mismatch")
	}

	// An event at the root must be granted.
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 16}, 1); err != nil {
		t.Fatalf("rebuild topology: %v", err)
	}
	if sig := tr.Signature(); sig != cl.TopologySignature() {
		t.Fatalf("local topology signature %d, server %d", sig, cl.TopologySignature())
	}
	g, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g.Outcome != controller.Granted {
		t.Fatalf("outcome %v, want granted", g.Outcome)
	}

	// A leaf addition reports the new node id.
	g, err = cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.AddLeaf})
	if err != nil {
		t.Fatalf("Submit add-leaf: %v", err)
	}
	if g.Outcome != controller.Granted || g.NewNode == tree.InvalidNode {
		t.Fatalf("add-leaf: outcome %v new node %d", g.Outcome, g.NewNode)
	}

	// An unknown node is answered with a bad-request error, not a dropped
	// connection.
	_, err = cl.Submit(controller.Request{Node: 99999, Kind: tree.None})
	var re *client.ResultError
	if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("unknown node: err %v, want ResultError(CodeBadRequest)", err)
	}

	// The connection survived: the next request is served.
	if _, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
		t.Fatalf("Submit after bad request: %v", err)
	}

	v := s.Tenants()[0]
	if v.Ops != 4 || v.Grants != 3 || v.Rejects != 0 || v.Errors != 1 {
		t.Fatalf("accounting ops=%d grants=%d rejects=%d errs=%d, want 4/3/0/1", v.Ops, v.Grants, v.Rejects, v.Errors)
	}
}

func TestHandshakeVersionReject(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
	})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: 42})); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	var rbuf []byte
	ft, p, err := wire.ReadFrame(bufio.NewReader(nc), &rbuf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if ft != wire.FrameError {
		t.Fatalf("frame %v, want error", ft)
	}
	e, err := wire.DecodeError(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if e.Code != wire.CodeVersion {
		t.Fatalf("error code %d, want CodeVersion", e.Code)
	}
}

func TestMalformedFrameGetsProtocolError(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
	})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var rbuf []byte

	nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})) //nolint:errcheck
	if ft, _, err := wire.ReadFrame(br, &rbuf); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %v err %v", ft, err)
	}

	// A results frame is not something a client may send.
	nc.Write(wire.AppendResults(nil, 9, nil)) //nolint:errcheck
	ft, p, err := wire.ReadFrame(br, &rbuf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if ft != wire.FrameError {
		t.Fatalf("frame %v, want error", ft)
	}
	if e, _ := wire.DecodeError(p); e.Code != wire.CodeProtocol {
		t.Fatalf("error code %d, want CodeProtocol", e.Code)
	}
	// The server closes the connection after a protocol error.
	if _, _, err := wire.ReadFrame(br, &rbuf); !errors.Is(err, io.EOF) {
		t.Fatalf("after protocol error: err %v, want EOF", err)
	}
}

func TestEmptySubmitFrameIsAnswered(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
	})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var rbuf []byte

	nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})) //nolint:errcheck
	if ft, _, err := wire.ReadFrame(br, &rbuf); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %v err %v", ft, err)
	}

	// Every Submit frame gets its Results frame — even an empty one.
	nc.Write(wire.AppendSubmit(nil, 7, nil)) //nolint:errcheck
	ft, p, err := wire.ReadFrame(br, &rbuf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if ft != wire.FrameResults {
		t.Fatalf("frame %v, want results", ft)
	}
	var rs wire.Results
	if err := wire.DecodeResults(p, &rs); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rs.ID != 7 || len(rs.Results) != 0 {
		t.Fatalf("results id %d len %d, want 7 / 0", rs.ID, len(rs.Results))
	}
}

func TestMetricsz(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(tree.Shape{Kind: "balanced", Nodes: 8}, 3, 500, 50), Paranoid: true,
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 8}, 3) //nolint:errcheck
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}

	// The live heap is what the last collection marked: complete one first.
	runtime.GC()
	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", s.MetricsAddr()))
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"dynctrld_protocol_version 3",
		"dynctrld_tenants 1",
		"dynctrld_ops_total 10",
		"dynctrld_grants_total 10",
		"dynctrld_rejects_total 0",
		"dynctrld_errors_total 0",
		"dynctrld_paranoid 1",
		"dynctrld_oracle_violations 0",
		"dynctrld_connections_open 1",
		`dynctrld_tenant_m{tenant="default"} 500`,
		`dynctrld_tenant_w{tenant="default"} 50`,
		`dynctrld_tenant_ops_total{tenant="default"} 10`,
		`dynctrld_tenant_oracle_violations{tenant="default"} 0`,
		`dynctrld_tenant_read_batches_total{tenant="default"}`,
		`dynctrld_tenant_pipeline_requests_total{tenant="default"} 10`,
		`dynctrld_tenant_moves_total{tenant="default"}`,
		"dynctrld_gc_cycles_total ",
		"dynctrld_heap_allocs_objects_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q:\n%s", want, text)
		}
	}
	// The process heap is read from runtime/metrics: after a collection, a
	// live heap of 0 bytes would mean the name went unread.
	var live int64
	if _, err := fmt.Sscanf(text[strings.Index(text, "\ndynctrld_heap_live_bytes ")+1:], "dynctrld_heap_live_bytes %d", &live); err != nil || live <= 0 {
		t.Errorf("dynctrld_heap_live_bytes = %d (%v), want a positive count of bytes:\n%s", live, err, text)
	}
}

// TestParanoidBudgetFollowsMoveCounter: the paranoid daemon's per-request
// budget check is fed the move counter, so an engine that overspends on one
// request is reported. The overspend is injected into the tenant's counters
// between two requests; the oracle charges it to the next one.
func TestParanoidBudgetFollowsMoveCounter(t *testing.T) {
	spec := tree.Shape{Kind: "balanced", Nodes: 8}
	s := startServer(t, Config{Tenants: oneTenant(spec, 3, 500, 50), Paranoid: true})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tr, _ := tree.New()
	if err := tree.Build(tr, spec, 3); err != nil {
		t.Fatal(err)
	}
	submit := func() {
		t.Helper()
		if _, err := cl.Submit(controller.Request{Node: tr.Leaves()[0], Kind: tree.None}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	submit()
	if v := s.Tenants()[0].Violations; len(v) != 0 {
		t.Fatalf("honest engine flagged: %v", v)
	}
	tn := s.tenants[wire.DefaultTenant]
	tn.mu.Lock()
	tn.ctl.Counters().Add(stats.CounterMoves, 100_000)
	tn.mu.Unlock()
	submit()
	v := s.Tenants()[0].Violations
	if len(v) != 1 || v[0].Invariant != "message-budget" {
		t.Fatalf("100k moves on one request: violations %v, want one message-budget", v)
	}
}

func TestGracefulShutdownAnswersInFlight(t *testing.T) {
	s := startServer(t, Config{
		Tenants: oneTenant(tree.Shape{Kind: "balanced", Nodes: 8}, 1, 100000, 50000),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tr, _ := tree.New()
	tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 8}, 1) //nolint:errcheck
	root := tr.Root()

	// Phase 1: concurrent load that completes before the shutdown. Every
	// grant the server accounts must have reached a client.
	pump := func(rounds int, stop <-chan struct{}) <-chan int64 {
		done := make(chan int64, 8)
		for g := 0; g < 8; g++ {
			go func() {
				var grants int64
				reqs := make([]controller.Request, 16)
				for i := range reqs {
					reqs[i] = controller.Request{Node: root, Kind: tree.None}
				}
				var out []controller.BatchResult
				for i := 0; i < rounds; i++ {
					select {
					case <-stop:
						i = rounds
						continue
					default:
					}
					res, err := cl.SubmitMany(reqs, out[:0])
					if err != nil {
						break
					}
					for _, r := range res {
						if r.Err == nil && r.Grant.Outcome == controller.Granted {
							grants++
						}
					}
					out = res
				}
				done <- grants
			}()
		}
		return done
	}

	done := pump(50, nil)
	var clientGrants int64
	for g := 0; g < 8; g++ {
		clientGrants += <-done
	}
	if grants := s.Tenants()[0].Grants; clientGrants != grants {
		t.Fatalf("clients saw %d grants, server accounted %d", clientGrants, grants)
	}

	// Phase 2: shut down under live load. Every call must resolve — a
	// verdict, a shutdown code, or a connection error — never a hang.
	stop := make(chan struct{})
	done = pump(1<<30, stop)
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	for g := 0; g < 8; g++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("client goroutine hung after shutdown")
		}
	}
}

// TestNoIDLeftIsABadRequest: an addition the tree has no id left for is
// refused for the request, as an unknown node is, and answered with
// CodeBadRequest; the connection and the tenant carry on.
func TestNoIDLeftIsABadRequest(t *testing.T) {
	err := fmt.Errorf("submit: %w", fmt.Errorf("add node 4294967296: %w", tree.ErrNoIDLeft))
	if code := resultCode(err); code != wire.CodeBadRequest {
		t.Fatalf("%v is answered with wire code %d, want CodeBadRequest (%d)", err, code, wire.CodeBadRequest)
	}
}

// TestRefusingTenantDecidesNothing: once a tenant refuses, because the drain
// is over or because its WAL broke, every request of a run is answered with
// the refusal's wire code and the run touches nothing: not the controller,
// not its counters, not the run tallies, not the WAL, and its receipt holds
// no ticket to wait on. A served run before the refusal shows the same
// comparison does see a run that decides.
func TestRefusingTenantDecidesNothing(t *testing.T) {
	spec := tree.Shape{Kind: "balanced", Nodes: 8}
	for _, tc := range []struct {
		name   string
		refuse func(*Server, *tenant)
		want   error
		code   uint8
	}{
		{"drained", func(s *Server, _ *tenant) {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		}, errShutdown, wire.CodeShutdown},
		{"wal unavailable", func(_ *Server, tn *tenant) {
			tn.mu.Lock()
			tn.refuse = errWALUnavailable
			tn.mu.Unlock()
		}, errWALUnavailable, wire.CodeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Tenants: oneTenant(spec, 3, 500, 50), Paranoid: true, WALDir: t.TempDir()})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.closeTenants()
			tn := s.tenants[wire.DefaultTenant]
			read := func() TenantView { return s.Tenants()[0] }
			reqs := []controller.Request{
				{Node: tn.tr.Root(), Kind: tree.None},
				{Node: tn.tr.Root(), Kind: tree.AddLeaf},
				{Node: tn.tr.Root(), Kind: tree.None},
			}

			fresh := read()
			out, rc := tn.submit(reqs, nil)
			if served := read(); len(out) != len(reqs) || !rc.hasTicket || reflect.DeepEqual(fresh, served) {
				t.Fatalf("a served run: %d results, receipt %+v, state %+v", len(out), rc, served)
			}
			// The served run's group commit lands in the WAL stats and the
			// fsync row; let it, so only the refused run is compared.
			if err := tn.eng.WaitDurable(rc.ticket); err != nil {
				t.Fatalf("WaitDurable: %v", err)
			}

			tc.refuse(s, tn)
			before := read()
			out, rc = tn.submit(reqs, out[:0])
			if len(out) != len(reqs) {
				t.Fatalf("%d results for %d requests", len(out), len(reqs))
			}
			for i, br := range out {
				if !errors.Is(br.Err, tc.want) || resultCode(br.Err) != tc.code {
					t.Errorf("request %d: err %v (wire code %d), want %v (wire code %d)", i, br.Err, resultCode(br.Err), tc.want, tc.code)
				}
			}
			if rc != (receipt{}) {
				t.Errorf("a run that decided nothing has receipt %+v", rc)
			}
			if after := read(); !reflect.DeepEqual(before, after) {
				t.Errorf("a refused run moved the tenant:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}
