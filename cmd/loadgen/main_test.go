package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dynctrl/internal/client"
	"dynctrl/internal/server"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// TestReconcile drives an in-process daemon the way main does and holds
// the accounting check to the true tallies, to a one-off grant count and
// to a tenant the daemon does not serve.
func TestReconcile(t *testing.T) {
	spec := workload.TopologySpec{Kind: "balanced", Nodes: 32}
	s, err := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants:     []server.TenantConfig{{Name: wire.DefaultTenant, Topology: spec, Seed: 1, M: 3000, W: 300}},
		Paranoid:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck

	sc := workload.Scenario{
		Topology: spec,
		Workload: workload.WorkloadSpec{Kind: "churn", Mix: "event"},
	}
	_, ct, err := workload.WireTrace(sc, 2, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	total := workload.RunConcurrentChunked(cl, ct, 64)
	if total.Errors != 0 || total.Submitted != 4000 || total.Rejected == 0 {
		t.Fatalf("run %+v: want 4000 requests, no errors, some rejects", total)
	}

	if err := reconcile(s.MetricsAddr(), "default", total); err != nil {
		t.Fatalf("reconcile on the true tallies: %v", err)
	}
	off := total
	off.Granted++
	err = reconcile(s.MetricsAddr(), "default", off)
	if err == nil || !strings.Contains(err.Error(), `dynctrld_tenant_grants_total{tenant="default"}`) {
		t.Fatalf("grants off by one: err %v, want it to name the grants sample", err)
	}
	err = reconcile(s.MetricsAddr(), "nobody", total)
	if err == nil || !strings.Contains(err.Error(), "metricsz lacks") {
		t.Fatalf("unknown tenant: err %v, want \"metricsz lacks\"", err)
	}
}

// TestReconcileSeesEarlyReject holds the reject-side check to stub /metricsz
// documents whose wire tallies match the client's: with a reject observed,
// the controller's grants must reach M−W and the wave's total must lie in
// [M−W, M]; without one, neither is asked.
func TestReconcileSeesEarlyReject(t *testing.T) {
	var doc atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, doc.Load().(string)) //nolint:errcheck
	}))
	defer stub.Close()
	addr := strings.TrimPrefix(stub.URL, "http://")

	for _, tc := range []struct {
		name                            string
		rejects, ctlGrants, waveGranted int64
		wantErr                         string
	}{
		{"inside the contract", 30, 95, 95, ""},
		{"rejected before M-W grants", 30, 50, 95, "dynctrld_tenant_ctl_grants_total"},
		{"wave below M-W", 30, 95, 80, "dynctrld_tenant_reject_wave_granted"},
		{"wave above M", 30, 95, 101, "dynctrld_tenant_reject_wave_granted"},
		{"no reject seen", 0, 50, 0, ""},
	} {
		total := workload.ConcurrentResult{Submitted: 90 + tc.rejects, Granted: 90, Rejected: tc.rejects}
		var lines []string
		for _, f := range []struct {
			family string
			v      int64
		}{
			{"m", 100}, {"w", 10},
			{"ops_total", total.Submitted}, {"grants_total", total.Granted}, {"rejects_total", total.Rejected},
			{"errors_total", 0}, {"oracle_violations", 0},
			{"ctl_grants_total", tc.ctlGrants}, {"reject_wave_granted", tc.waveGranted},
		} {
			lines = append(lines, fmt.Sprintf(`dynctrld_tenant_%s{tenant="default"} %d`, f.family, f.v))
		}
		doc.Store(strings.Join(lines, "\n") + "\n")
		err := reconcile(addr, "default", total)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	fields, err := parseMetrics(strings.Join([]string{
		"# HELP dynctrld_ops_total Requests answered.",
		"# TYPE dynctrld_ops_total counter",
		"dynctrld_ops_total 42",
		`dynctrld_tenant_ops_total{tenant="a"} 7`,
		"dynctrld_uptime_seconds 1.5",
		`dynctrld_tenant_stage_seconds{tenant="a",stage="total",quantile="p50"} 2e-06`,
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"dynctrld_ops_total": 42, `dynctrld_tenant_ops_total{tenant="a"}`: 7}
	if len(fields) != len(want) {
		t.Fatalf("fields %v, want %v", fields, want)
	}
	for k, v := range want {
		if fields[k] != v {
			t.Fatalf("fields %v, want %v", fields, want)
		}
	}
	if _, err := parseMetrics("# HELP x y\n# TYPE x gauge\nx 0.5\n"); err == nil {
		t.Fatal("no integer sample: want an error")
	}
}
