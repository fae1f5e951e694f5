package server

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goVersionRe normalizes the one environment-dependent label in the
// exposition so the golden files are stable across toolchains.
var goVersionRe = regexp.MustCompile(`go_version="[^"]*"`)

// heapRe normalizes the samples of the process heap families, which count
// whatever the test binary has allocated so far.
var heapRe = regexp.MustCompile(`(?m)^(dynctrld_(?:heap_live_bytes|gc_cycles_total|heap_allocs_objects_total)) \d+$`)

// renderMetrics builds a server (without starting it, so start-time and
// uptime stay deterministically zero), renders /metricsz once and tears
// the tenant stacks down.
func renderMetrics(t *testing.T, cfg Config) string {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.closeTenants()
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	doc := goVersionRe.ReplaceAllString(buf.String(), `go_version="GOVERSION"`)
	return heapRe.ReplaceAllString(doc, "$1 N")
}

// metricSample returns the integer sample of one series (family and label
// set as rendered) of a /metricsz document.
func metricSample(t *testing.T, doc, series string) int {
	t.Helper()
	_, rest, ok := strings.Cut("\n"+doc, "\n"+series+" ")
	if !ok {
		t.Fatalf("no %q sample in:\n%s", series, doc)
	}
	line, _, _ := strings.Cut(rest, "\n")
	n, err := strconv.Atoi(line)
	if err != nil {
		t.Fatalf("%s sample %q: %v", series, line, err)
	}
	return n
}

// checkOneTraceCount holds a /metricsz document to the tracer's one critical
// section: a batch is one trace, one sample of every stage and one lock hold,
// all counted under the same mutex and all read by one Snapshot.
func checkOneTraceCount(t *testing.T, doc string) int {
	t.Helper()
	traces := metricSample(t, doc, `dynctrld_tenant_traces_total{tenant="default"}`)
	total := metricSample(t, doc, `dynctrld_tenant_stage_seconds_count{tenant="default",stage="total"}`)
	hold := metricSample(t, doc, `dynctrld_tenant_combine_seconds_count{tenant="default"}`)
	if traces != total || traces != hold {
		t.Fatalf("one scrape reads traces_total %d, stage total count %d, combine count %d: want one count",
			traces, total, hold)
	}
	return traces
}

// TestWriteMetricsGolden pins the full Prometheus exposition byte for
// byte: family grouping, HELP/TYPE lines, label escaping and the
// per-tenant sample set, for a two-tenant daemon with and without the
// durability engine. Regenerate with `go test ./internal/server -run
// Golden -update` after intentionally changing the exposition.
func TestWriteMetricsGolden(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "default", Topology: workload.TopologySpec{Kind: "balanced", Nodes: 8}, Seed: 3, M: 500, W: 50},
		{Name: "blue", Topology: workload.TopologySpec{Kind: "star", Nodes: 4}, Seed: 7, M: 100, W: 10},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"nowal", Config{Tenants: tenants}},
		{"wal", Config{Tenants: tenants, WALDir: t.TempDir()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := renderMetrics(t, tc.cfg)
			golden := filepath.Join("testdata", "metrics_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (rerun with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("metrics exposition diverged from %s (rerun with -update if intentional):\ngot:\n%s",
					golden, got)
			}
		})
	}
}

// TestMetricsExpositionShape checks the exposition rules the golden files
// cannot see changing: every sample belongs to a family that declared
// # HELP and # TYPE before it, families are contiguous, and label values
// with exposition metacharacters are escaped.
func TestMetricsExpositionShape(t *testing.T) {
	text := renderMetrics(t, Config{Tenants: []TenantConfig{
		{Name: "default", Topology: workload.TopologySpec{Kind: "balanced", Nodes: 8}, Seed: 1, M: 100, W: 10},
	}})
	helped := map[string]bool{}
	typed := map[string]bool{}
	seen := map[string]bool{}
	last := ""
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fam := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !helped[fam] && !helped[name] {
			t.Errorf("line %d: sample %q has no # HELP", ln+1, name)
		}
		if !typed[fam] && !typed[name] {
			t.Errorf("line %d: sample %q has no # TYPE", ln+1, name)
		}
		if fam != last && seen[fam] {
			t.Errorf("line %d: family %q is not contiguous", ln+1, fam)
		}
		seen[fam] = true
		last = fam
	}
	if len(seen) < 20 {
		t.Fatalf("only %d metric families rendered; exposition looks truncated:\n%s", len(seen), text)
	}
}

// TestMetricsLabelEscaping: a tenant name carrying exposition
// metacharacters must come out escaped, not raw.
func TestMetricsLabelEscaping(t *testing.T) {
	// wire.ValidTenant refuses such names at the config boundary, so forge
	// one after construction: WriteMetrics must never emit a malformed
	// exposition whatever the name is.
	s := &Server{
		cfg:     Config{},
		tenants: map[string]*tenant{},
	}
	name := `qu"ote\back`
	tn, err := newTenant(TenantConfig{
		Name:     "default",
		Topology: workload.TopologySpec{Kind: "star", Nodes: 4},
		Seed:     1, M: 10, W: 1,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tn.name = name
	s.tenants[name] = tn
	s.order = []string{name}
	defer s.closeTenants()

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), `tenant="qu\"ote\\back"`) {
		t.Errorf("label not escaped:\n%s", buf.String())
	}
}

// TestTracezEndpoint drives traffic through a traced server and checks
// the /tracez document: stage digest, slowest and most-recent tables,
// the tenant filter and the n cap.
func TestTracezEndpoint(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 8}, 3, 500, 50),
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 8}, 3) //nolint:errcheck
	for i := 0; i < 10; i++ {
		if _, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// A batch's trace is recorded after its reply is written, so the tenth
	// reply can reach this goroutine before the tenth trace is in.
	waitUntil(t, "the tenth trace", func() bool { return s.Tenants()[0].Trace.Recorded >= 10 })

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", s.MetricsAddr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	text := get("/tracez")
	for _, want := range []string{
		`== tenant "default" ==`,
		"traces recorded: 10",
		"stage latency (server-side):",
		"slowest 16 batches:",
		"most recent 16 batches:",
		"execute",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/tracez missing %q:\n%s", want, text)
		}
	}
	if got := get("/tracez?tenant=absent"); strings.Contains(got, "== tenant") {
		t.Errorf("/tracez?tenant=absent rendered a tenant:\n%s", got)
	}
	if got := get("/tracez?n=2"); !strings.Contains(got, "slowest 2 batches:") {
		t.Errorf("/tracez?n=2 ignored the cap:\n%s", got)
	}

	if got := checkOneTraceCount(t, get("/metricsz")); got != 10 {
		t.Errorf("/metricsz counts %d traces, want 10", got)
	}

	// The stage histograms behind /metricsz saw the same batches.
	v := s.Tenants()[0]
	if !v.Traced || v.Trace.Stages == nil {
		t.Fatal("no stage digest in the view of a traced tenant")
	}
	var total int64
	for _, st := range v.Trace.Stages {
		if st.Stage == "total" {
			total = st.Count
		}
	}
	if total != 10 {
		t.Errorf("total stage count = %d, want 10", total)
	}
}

// TestTraceRingDisabled: a negative TraceRing turns the whole layer off —
// nil tracers, no stage samples on /metricsz, and /tracez says so.
func TestTraceRingDisabled(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 8}, 3, 500, 50), TraceRing: -1,
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 8}, 3) //nolint:errcheck
	if _, err := cl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	if v := s.Tenants()[0]; v.Traced || v.Trace.Stages != nil {
		t.Errorf("tenant view with tracing disabled: traced %v, stages %v", v.Traced, v.Trace.Stages)
	}
	var buf bytes.Buffer
	s.WriteTraces(&buf, "", 4)
	if !strings.Contains(buf.String(), "tracing disabled") {
		t.Errorf("/tracez with tracing disabled:\n%s", buf.String())
	}
	buf.Reset()
	s.WriteMetrics(&buf)
	if strings.Contains(buf.String(), "dynctrld_tenant_stage_seconds") {
		t.Error("stage histograms exported with tracing disabled")
	}
	if !strings.Contains(buf.String(), "dynctrld_tenant_ops_total") {
		t.Error("base accounting missing with tracing disabled")
	}
}

// TestPprofGate: the profiling endpoints exist only when Config.Pprof is
// set.
func TestPprofGate(t *testing.T) {
	status := func(s *Server) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", s.MetricsAddr()))
		if err != nil {
			t.Fatalf("GET pprof: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	off := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(workload.TopologySpec{Kind: "star", Nodes: 4}, 0, 10, 1),
	})
	if got := status(off); got != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", got)
	}
	on := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(workload.TopologySpec{Kind: "star", Nodes: 4}, 0, 10, 1), Pprof: true,
	})
	if got := status(on); got != http.StatusOK {
		t.Errorf("pprof with -pprof: status %d, want 200", got)
	}
}

// TestScrapeUnderLoad races the observability read paths (/metricsz,
// /tracez) against a live submit storm: the ring, the slowest-N and the
// histogram rows are plain values under the tracer's one mutex, which must
// hold up under the race detector while being scraped, and every /metricsz
// document, mid-storm or after it, reads one count of batches.
func TestScrapeUnderLoad(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1, 1<<30, 1<<29),
	})
	cl, err := client.Dial(s.Addr(), client.Options{Conns: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tr, _ := tree.New()
	workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: 16}, 1) //nolint:errcheck
	root := tr.Root()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]controller.Request, 8)
			for i := range reqs {
				reqs[i] = controller.Request{Node: root, Kind: tree.None}
			}
			var out []controller.BatchResult
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := cl.SubmitMany(reqs, out[:0])
				if err != nil {
					return
				}
				out = res
			}
		}()
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, path := range []string{"/metricsz", "/tracez?n=4"} {
			resp, err := http.Get(fmt.Sprintf("http://%s%s", s.MetricsAddr(), path))
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
			}
			if len(body) == 0 {
				t.Fatalf("GET %s: empty body", path)
			}
			if path == "/metricsz" {
				checkOneTraceCount(t, string(body))
			}
		}
	}
	close(stop)
	wg.Wait()
	// The scrape raced real traffic and the tracer kept count: a batch's
	// trace goes in after its reply, so quiesce before the last reading.
	cl.Close()
	waitLifecycle(t, s, "connections drained", func(open, _, _ int64) bool { return open == 0 })
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	if checkOneTraceCount(t, buf.String()) == 0 {
		t.Error("no batch traced under load")
	}
}

// TestScrapeAggregateIsSumOfTenants: the process-wide families and the
// per-tenant ones are fed by one reading of each tenant, so in every
// document, however much traffic lands while it is rendered, an aggregate is
// exactly the sum of its tenants' lines. Loading each tally once for the sums
// and again for the tenant's lines shows ops_total ahead of or behind its
// parts. Two tenants, four connections each that redial as they go (so the
// connection counts move too); the small contract runs into rejects and a
// request for a node that does not exist is an error.
func TestScrapeAggregateIsSumOfTenants(t *testing.T) {
	spec := workload.TopologySpec{Kind: "star", Nodes: 4}
	s := startServer(t, Config{Tenants: []TenantConfig{
		{Name: "big", Topology: spec, Seed: 1, M: 1 << 30, W: 1 << 29},
		{Name: "small", Topology: spec, Seed: 1, M: 2000, W: 1000},
	}})
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, spec, 1); err != nil {
		t.Fatal(err)
	}
	reqs := make([]controller.Request, 32)
	for i := range reqs {
		reqs[i] = controller.Request{Node: tr.Root(), Kind: tree.None}
	}
	reqs[len(reqs)-1].Node = 1 << 20 // no such node: one error a batch

	done := make(chan struct{})
	var wg sync.WaitGroup
	tenants := []string{"big", "small"}
	for _, name := range tenants {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for dial := 0; dial < 8; dial++ {
					cl, err := client.Dial(s.Addr(), client.Options{Tenant: name})
					if err != nil {
						t.Errorf("Dial: %v", err)
						return
					}
					var out []controller.BatchResult
					for i := 0; i < 16; i++ {
						if out, err = cl.SubmitMany(reqs, out[:0]); err != nil {
							t.Errorf("SubmitMany: %v", err)
							break
						}
					}
					cl.Close()
				}
			}()
		}
	}
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }() // a failed document must not outrun the load

	for scraping, docs := true, 0; scraping; docs++ {
		select {
		case <-done:
			scraping = false // and one last document, at rest
		default:
		}
		var buf bytes.Buffer
		s.WriteMetrics(&buf)
		doc := buf.String()
		for _, f := range []string{"ops_total", "grants_total", "rejects_total", "errors_total", "connections_open", "connections_total"} {
			sum := 0
			for _, name := range tenants {
				sum += metricSample(t, doc, "dynctrld_tenant_"+f+`{tenant="`+name+`"}`)
			}
			if agg := metricSample(t, doc, "dynctrld_"+f); agg != sum {
				t.Fatalf("document %d: dynctrld_%s = %d, its tenants sum to %d", docs, f, agg, sum)
			}
			if !scraping && sum == 0 && f != "connections_open" {
				t.Errorf("dynctrld_%s is 0 after the load: the test drove nothing into it", f)
			}
		}
	}
}

// TestScrapeReadsEngineStateUnderLock is the ownership rule of packages
// tree and stats seen from the daemon: the tree and the controller's counters
// have no lock of their own, so the scrape's read of the engine state (size,
// height, the four counters, the oracle's violations) must sit under
// tenant.mu like every other access. Eight connections grow the tree (every
// request adds a leaf, so the depth slice Height scans is reallocated many
// times over, and every grant is three counter adds) while /metricsz is
// rendered in a loop; under -race a bare read of tn.tr.Size(), Height() or
// tn.ctrs.Get() is reported here. What a scrape reads must also be a state
// the writer's order allows: the initial 16 nodes plus one per grant some
// prefix of the runs decided, and, the engine being read at one instant,
// exactly as many nodes above the initial 16 as topological changes counted.
// Reading the counter at one instant and the tree at a later one shows more
// nodes than changes whenever a run lands between the two. The run tallies
// are of that instant too: the load has no errors, so the requests the runs
// carried are the controller's grants plus its rejects on every scrape (a
// tally kept outside tenant.mu is ahead by the runs waiting for the lock).
func TestScrapeReadsEngineStateUnderLock(t *testing.T) {
	spec := workload.TopologySpec{Kind: "balanced", Nodes: 16}
	s := startServer(t, Config{Tenants: oneTenant(spec, 1, 1<<30, 1<<29)})
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, spec, 1); err != nil {
		t.Fatal(err)
	}
	nodes := tr.Nodes()

	const conns, perConn = 8, 1024
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(s.Addr(), client.Options{})
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			reqs := make([]controller.Request, 64)
			var out []controller.BatchResult
			for sent := 0; sent < perConn; sent += len(reqs) {
				for i := range reqs {
					reqs[i] = controller.Request{Node: nodes[(sent+i+g)%len(nodes)], Kind: tree.AddLeaf}
				}
				if out, err = cl.SubmitMany(reqs, out[:0]); err != nil {
					t.Errorf("SubmitMany: %v", err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	sample := func(doc, family string) int {
		t.Helper()
		return metricSample(t, doc, family+`{tenant="default"}`)
	}
	last := len(nodes)
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var buf bytes.Buffer
		s.WriteMetrics(&buf)
		n := sample(buf.String(), "dynctrld_tenant_tree_nodes")
		if n < last {
			t.Fatalf("tree_nodes went from %d to %d while only leaves were added", last, n)
		}
		if changes := sample(buf.String(), "dynctrld_tenant_topo_changes_total"); n != len(nodes)+changes {
			t.Fatalf("one scrape reads tree_nodes %d and topo_changes_total %d over %d initial nodes: not one instant",
				n, changes, len(nodes))
		}
		reqs := sample(buf.String(), "dynctrld_tenant_pipeline_requests_total")
		grants := sample(buf.String(), "dynctrld_tenant_ctl_grants_total")
		rejects := sample(buf.String(), "dynctrld_tenant_ctl_rejects_total")
		if reqs != grants+rejects {
			t.Fatalf("one scrape reads pipeline_requests_total %d and ctl grants %d + rejects %d: not one instant",
				reqs, grants, rejects)
		}
		last = n
	}
	if want := len(nodes) + conns*perConn; last != want {
		t.Errorf("tree_nodes %d after every add-leaf was granted, want %d", last, want)
	}
}
