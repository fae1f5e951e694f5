// Command loadgen replays internal/workload scenarios against a running
// dynctrld daemon over the wire protocol in closed loop and checks the
// paper's contract there: never more than M grants, and, with -metrics,
// the daemon's per-tenant /metricsz accounting reconciled exactly with
// what this client observed. It prints one JSON line summarising the run,
// the artifact CI's smoke jobs upload. Performance numbers, open-loop
// latency included, come from bench/, not from here.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7700 -scenario churn-storm -conns 8
//	loadgen -addr 127.0.0.1:7700 -duration 5s -min-requests 100000 \
//	        -metrics 127.0.0.1:7701
//
// The generator reconstructs the daemon's initial topology from the same
// (scenario | -topology/-nodes, -seed) parameters — the handshake's
// topology signature verifies both sides built the identical tree — and
// pre-generates an interleaving-safe concurrent trace that it drives
// through a pooled, pipelined client in chunked SubmitMany runs.
//
// With -tenant the generator binds every pooled connection to that
// namespace of a multi-tenant daemon; its topology flags then describe
// that tenant's tree, and the accounting cross-check reads the tenant's
// labeled /metricsz section.
//
// Exit status is nonzero when: any request errored; the grant total
// exceeds the server's M; fewer than -min-requests completed; or, when
// -metrics is given, the daemon's per-tenant /metricsz accounting (ops,
// grants, rejects, oracle violations) does not reconcile exactly with
// what this client observed, or this client saw a reject and the tenant's
// controller had decided fewer than M−W grants or its reject wave
// announced a total outside [M−W, M]. The accounting check assumes loadgen
// is the only traffic source for its tenant; other tenants' traffic must
// not move these numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/workload"
)

// summary is the JSON line loadgen prints; throughput carries the name
// BENCHMARK.json gives it.
type summary struct {
	Scenario    string  `json:"scenario"`
	Tenant      string  `json:"tenant"`
	Conns       int     `json:"conns"`
	Chunk       int     `json:"chunk"`
	Seed        int64   `json:"seed"`
	Incarnation uint64  `json:"incarnation"`
	Requests    int64   `json:"requests"`
	Granted     int64   `json:"granted"`
	Rejected    int64   `json:"rejected"`
	Errors      int64   `json:"errors"`
	ElapsedS    float64 `json:"elapsed_s"`
	Throughput  float64 `json:"throughput_ops_s"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "daemon wire-protocol address")
	metrics := flag.String("metrics", "", "daemon metrics address for the accounting cross-check (empty skips it)")
	scenario := flag.String("scenario", "", "workload catalog scenario to replay (empty = plain event/add-leaf churn)")
	topology := flag.String("topology", "balanced", "topology the daemon was started with (ignored with -scenario)")
	nodes := flag.Int("nodes", 256, "initial tree size the daemon was started with (ignored with -scenario)")
	mix := flag.String("mix", "event", "churn mix when no scenario is given: "+
		"default, grow, shrink, event, or storm")
	seed := flag.Int64("seed", 1, "seed the daemon was started with")
	tenant := flag.String("tenant", "", "tenant namespace to bind to (empty = the daemon's default namespace)")
	conns := flag.Int("conns", 8, "pooled connections")
	chunk := flag.Int("chunk", 128, "requests per SubmitMany run")
	requests := flag.Int("requests", 0, "total requests to send (0 = scenario default; ignored with -duration)")
	duration := flag.Duration("duration", 0, "replay the trace in rounds until this wall-clock budget is spent")
	minRequests := flag.Int64("min-requests", 0, "fail unless at least this many requests completed")
	out := flag.String("out", "", "also write the JSON summary to this path")
	flag.Parse()

	sc := workload.Scenario{
		Name:     "wire-churn",
		Topology: workload.TopologySpec{Kind: *topology, Nodes: *nodes},
		Workload: workload.WorkloadSpec{Kind: "churn", Mix: *mix},
		Requests: 1 << 14,
	}
	if *scenario != "" {
		var err error
		sc, err = workload.ScenarioByName(*scenario)
		if err != nil {
			fatalf("%v", err)
		}
	}

	tr, ct, err := workload.WireTrace(sc, *conns, *requests, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	cl, err := client.Dial(*addr, client.Options{Conns: *conns, Tenant: *tenant})
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer cl.Close()
	if got, want := cl.TopologySignature(), workload.TopologySignature(tr); got != want {
		fatalf("topology signature mismatch: daemon %d, local %d"+
			" (start loadgen with tenant %q's -scenario/-topology/-nodes/-seed)", got, want, cl.Tenant())
	}
	logf("connected to %s tenant %q: M=%d W=%d incarnation=%d, %d conns, trace %d requests (%s)",
		*addr, cl.Tenant(), cl.M(), cl.W(), cl.Incarnation(), *conns, ct.Len(), sc.Name)

	var total workload.ConcurrentResult
	t0 := time.Now()
	for {
		res := workload.RunConcurrentChunked(cl, ct, *chunk)
		total.Granted += res.Granted
		total.Rejected += res.Rejected
		total.Errors += res.Errors
		total.Submitted += res.Submitted
		if *duration <= 0 || time.Since(t0) >= *duration {
			break
		}
	}
	elapsed := time.Since(t0)

	sum := summary{
		Scenario:    sc.Name,
		Tenant:      cl.Tenant(),
		Conns:       *conns,
		Chunk:       *chunk,
		Seed:        *seed,
		Incarnation: cl.Incarnation(),
		Requests:    total.Submitted,
		Granted:     total.Granted,
		Rejected:    total.Rejected,
		Errors:      total.Errors,
		ElapsedS:    elapsed.Seconds(),
		Throughput:  float64(total.Submitted) / elapsed.Seconds(),
	}
	buf, err := json.Marshal(sum)
	if err != nil {
		fatalf("%v", err)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	logf("%d requests in %.2fs (%.0f req/s): granted=%d rejected=%d errors=%d rejectWave=%v",
		total.Submitted, sum.ElapsedS, sum.Throughput, total.Granted, total.Rejected, total.Errors, cl.RejectWaveSeen())

	failed := false
	if total.Errors > 0 {
		logf("FAIL: %d request errors", total.Errors)
		failed = true
	}
	if total.Granted > cl.M() {
		logf("FAIL: granted %d exceeds the server's M=%d", total.Granted, cl.M())
		failed = true
	}
	if *minRequests > 0 && total.Submitted < *minRequests {
		logf("FAIL: completed %d requests, need at least %d", total.Submitted, *minRequests)
		failed = true
	}
	if *metrics != "" && total.Errors == 0 {
		// With zero request errors every submitted request was answered on
		// the wire, so the daemon's per-tenant tallies must match ours
		// exactly (assuming loadgen is the only traffic source for its
		// tenant — other tenants' traffic must not move these numbers).
		if err := reconcile(*metrics, cl.Tenant(), total); err != nil {
			logf("FAIL: accounting mismatch: %v", err)
			failed = true
		} else {
			logf("tenant %q accounting reconciled against %s", cl.Tenant(), *metrics)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// reconcile fetches /metricsz and requires the daemon's wire-level
// accounting for this client's tenant to match the client's observations
// exactly. When the client saw a reject it also holds the tenant to the
// contract's lower half, against the (M, W) the same document reports: the
// controller rejects only after M−W grants, and the reject wave announces
// a final total in [M−W, M].
func reconcile(addr, tenant string, total workload.ConcurrentResult) error {
	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fields, err := parseMetrics(string(body))
	if err != nil {
		return err
	}
	l := fmt.Sprintf("{tenant=%q}", tenant)
	checks := []struct {
		name string
		want int64
	}{
		{"dynctrld_tenant_ops_total" + l, total.Submitted},
		{"dynctrld_tenant_grants_total" + l, total.Granted},
		{"dynctrld_tenant_rejects_total" + l, total.Rejected},
		{"dynctrld_tenant_errors_total" + l, 0},
		{"dynctrld_tenant_oracle_violations" + l, 0},
	}
	for _, c := range checks {
		got, ok := fields[c.name]
		if !ok {
			return fmt.Errorf("metricsz lacks %s", c.name)
		}
		if got != c.want {
			return fmt.Errorf("%s = %d, client observed %d", c.name, got, c.want)
		}
	}
	if total.Rejected == 0 {
		return nil
	}
	var v [4]int64
	for i, family := range []string{"dynctrld_tenant_m", "dynctrld_tenant_w",
		"dynctrld_tenant_ctl_grants_total", "dynctrld_tenant_reject_wave_granted"} {
		var ok bool
		if v[i], ok = fields[family+l]; !ok {
			return fmt.Errorf("metricsz lacks %s", family+l)
		}
	}
	m, w, ctlGrants, waveGranted := v[0], v[1], v[2], v[3]
	if ctlGrants < m-w {
		return fmt.Errorf("client saw a reject, but dynctrld_tenant_ctl_grants_total%s = %d < M-W = %d", l, ctlGrants, m-w)
	}
	if waveGranted < m-w || waveGranted > m {
		return fmt.Errorf("dynctrld_tenant_reject_wave_granted%s = %d, want within [M-W=%d, M=%d]", l, waveGranted, m-w, m)
	}
	return nil
}

// parseMetrics reads the plain-text "name value" lines of /metricsz,
// keeping the integer-valued fields (a "# HELP"/"# TYPE" line never has
// an integer after its first space).
func parseMetrics(text string) (map[string]int64, error) {
	fields := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			fields[name] = v
		}
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("no parsable metrics lines")
	}
	return fields, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
