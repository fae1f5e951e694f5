// Command loadgen replays internal/workload scenarios against a running
// dynctrld daemon over the wire protocol and prints a JSON summary
// (internal/benchfmt): the artifact CI's smoke jobs upload, and the client
// side of the client-vs-server latency reconciliation. Performance numbers
// come from bench/, not from here.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7700 -scenario churn-storm -conns 8
//	loadgen -addr 127.0.0.1:7700 -duration 5s -min-requests 100000 \
//	        -metrics 127.0.0.1:7701
//	loadgen -addr 127.0.0.1:7700 -rate 20000 -arrival poisson -requests 100000
//
// With -rate the generator switches from the closed-loop chunked replay
// to an open loop: arrivals follow a precomputed Poisson or
// fixed-interval schedule regardless of how fast the daemon answers, and
// each request's latency is measured from its *scheduled* arrival — the
// coordinated-omission-safe convention — with p50/p99/p999 reported in
// the summary's latency block.
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
// what this client observed. The accounting check assumes loadgen is the
// only traffic source for its tenant; other tenants' traffic must not
// move these numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynctrl/internal/benchfmt"
	"dynctrl/internal/client"
	"dynctrl/internal/workload"
)

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
	label := flag.String("label", "loadgen", "label naming this run")
	out := flag.String("out", "", "also write the JSON summary to this path")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/s (0 = closed-loop chunked replay)")
	arrival := flag.String("arrival", workload.ArrivalPoisson, "open-loop arrival process: "+
		workload.ArrivalPoisson+" or "+workload.ArrivalFixed)
	openWorkers := flag.Int("open-workers", 0, "open-loop in-flight submission bound (0 = default)")
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

	var (
		total   workload.ConcurrentResult
		elapsed time.Duration
		rounds  int
		latency *benchfmt.Latency
	)
	if *rate > 0 {
		// Open loop: arrivals follow the schedule no matter how fast the
		// daemon answers, and latency is charged from the scheduled arrival
		// (coordinated-omission safe).
		n := *requests
		if n <= 0 && *duration > 0 {
			n = int(*rate * duration.Seconds())
		}
		if n <= 0 {
			n = ct.Len()
		}
		res, err := workload.RunOpenLoop(cl, ct.Serial(), workload.OpenLoopSpec{
			Rate:    *rate,
			Arrival: *arrival,
			Total:   n,
			Workers: *openWorkers,
			Seed:    *seed,
		})
		if err != nil {
			fatalf("%v", err)
		}
		total, elapsed, rounds = res.ConcurrentResult, res.Elapsed, 1
		latency = &benchfmt.Latency{
			Unit:       "ns",
			P50:        float64(res.Hist.Quantile(0.50)),
			P99:        float64(res.Hist.Quantile(0.99)),
			P999:       float64(res.Hist.Quantile(0.999)),
			Max:        float64(res.Hist.Max()),
			Mean:       res.Hist.Mean(),
			Count:      res.Hist.Count(),
			TargetRate: *rate,
			Arrival:    *arrival,
		}
		logf("open loop: %s arrivals at %.0f req/s target, p50=%s p99=%s p999=%s",
			*arrival, *rate,
			time.Duration(res.Hist.Quantile(0.50)),
			time.Duration(res.Hist.Quantile(0.99)),
			time.Duration(res.Hist.Quantile(0.999)))
	} else {
		t0 := time.Now()
		for {
			res := workload.RunConcurrentChunked(cl, ct, *chunk)
			total.Granted += res.Granted
			total.Rejected += res.Rejected
			total.Errors += res.Errors
			total.Submitted += res.Submitted
			rounds++
			if *duration <= 0 || time.Since(t0) >= *duration {
				break
			}
		}
		elapsed = time.Since(t0)
	}

	opsPerSec := float64(total.Submitted) / elapsed.Seconds()
	// A daemon running without a WAL reports incarnation 0 in the
	// handshake; anything else is the durability engine.
	durability := benchfmt.DurabilityNone
	if cl.Incarnation() > 0 {
		durability = benchfmt.DurabilityWALSnap
	}

	// Scrape the daemon's own stage histograms so the summary carries both
	// sides of the latency story, and reconcile them against the
	// client-observed quantiles when an open-loop run measured any.
	var serverLatency *benchfmt.ServerLatency
	if *metrics != "" {
		if sl, err := scrapeServerLatency(*metrics, cl.Tenant()); err != nil {
			logf("server latency scrape skipped: %v", err)
		} else {
			serverLatency = sl
			if latency != nil {
				printReconciliation(latency, sl)
			}
		}
	}
	rep := benchfmt.Report{
		Label:     *label,
		Schema:    benchfmt.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workload: map[string]any{
			"scenario": sc.Name,
			"tenant":   cl.Tenant(),
			"conns":    *conns,
			"chunk":    *chunk,
			"seed":     *seed,
			"rounds":   rounds,
			"m":        cl.M(),
			"w":        cl.W(),
			"granted":  total.Granted,
			"rejected": total.Rejected,
			"errors":   total.Errors,
			"elapsed":  elapsed.Seconds(),
		},
		Results: map[string]benchfmt.Measurement{
			"loadgen": {
				Scenario:      sc.Name,
				Transport:     benchfmt.TransportTCP,
				Durability:    durability,
				NsPerOp:       float64(elapsed.Nanoseconds()) / float64(max(total.Submitted, 1)),
				OpsPerSec:     opsPerSec,
				Latency:       latency,
				ServerLatency: serverLatency,
			},
		},
	}
	buf, err := rep.Bytes()
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(buf)
	if *out != "" {
		if _, err := rep.WriteFile(*out); err != nil {
			fatalf("%v", err)
		}
	}
	logf("%d requests in %.2fs (%.0f req/s): granted=%d rejected=%d errors=%d rejectWave=%v",
		total.Submitted, elapsed.Seconds(), opsPerSec, total.Granted, total.Rejected, total.Errors, cl.RejectWaveSeen())

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
// exactly.
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
	return nil
}

// parseMetrics reads the plain-text "name value" lines of /metricsz,
// keeping the integer-valued fields.
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

// scrapeServerLatency fetches /metricsz and collects the daemon's
// per-stage latency summary (dynctrld_tenant_stage_seconds) for this
// client's tenant, converting seconds to the nanosecond unit the rest of
// the report uses. A daemon running with tracing disabled (-trace-ring
// -1) exports no stage samples; that is reported as an error so the
// caller can skip the block rather than emit an empty one.
func scrapeServerLatency(addr, tenant string) (*benchfmt.ServerLatency, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", addr))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	stages := map[string]benchfmt.StageLatency{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "dynctrld_tenant_stage_seconds")
		if !ok {
			continue
		}
		suffix := ""
		if r, ok := strings.CutPrefix(rest, "_sum"); ok {
			suffix, rest = "sum", r
		} else if r, ok := strings.CutPrefix(rest, "_count"); ok {
			suffix, rest = "count", r
		}
		if !strings.HasPrefix(rest, "{") {
			continue
		}
		end := strings.Index(rest, "} ")
		if end < 0 {
			continue
		}
		labels := parseLabels(rest[1:end])
		if labels["tenant"] != tenant || labels["stage"] == "" {
			continue
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			continue
		}
		sl := stages[labels["stage"]]
		switch suffix {
		case "count":
			sl.Count = int64(val)
		case "sum":
			// The summary's _sum is not part of the report schema.
		default:
			ns := val * 1e9
			switch labels["quantile"] {
			case "p50":
				sl.P50 = ns
			case "p99":
				sl.P99 = ns
			case "p999":
				sl.P999 = ns
			}
		}
		stages[labels["stage"]] = sl
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("no dynctrld_tenant_stage_seconds samples for tenant %q"+
			" (daemon running with -trace-ring -1?)", tenant)
	}
	return &benchfmt.ServerLatency{Unit: "ns", Stages: stages}, nil
}

// parseLabels splits a Prometheus label body (`k1="v1",k2="v2"`) into a
// map. Values containing escaped quotes or commas are beyond what tenant
// and stage names can contain, so a plain split suffices.
func parseLabels(s string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, `"`)
	}
	return out
}

// printReconciliation prints the client-vs-server latency table for an
// open-loop run: the daemon's per-stage quantiles next to the
// client-observed ones. The difference between the client p99 and the
// server total p99 is time the server never saw — network transit plus
// client-side queueing behind the in-flight bound.
func printReconciliation(lat *benchfmt.Latency, srv *benchfmt.ServerLatency) {
	logf("client-vs-server latency reconciliation:")
	logf("  %-8s %12s %12s %10s", "stage", "p50", "p99", "count")
	var stageSum float64
	for _, st := range []string{"decode", "queue", "execute", "wal", "write", "total"} {
		sl, ok := srv.Stages[st]
		if !ok {
			continue
		}
		if st != "total" {
			stageSum += sl.P99
		}
		logf("  %-8s %12s %12s %10d",
			st, time.Duration(int64(sl.P50)), time.Duration(int64(sl.P99)), sl.Count)
	}
	logf("  %-8s %12s %12s %10d", "client",
		time.Duration(int64(lat.P50)), time.Duration(int64(lat.P99)), lat.Count)
	gap := lat.P99 - srv.Stages["total"].P99
	if gap < 0 {
		gap = 0
	}
	logf("  stage p99 sum %s, server total p99 %s, network/client gap %s",
		time.Duration(int64(stageSum)),
		time.Duration(int64(srv.Stages["total"].P99)),
		time.Duration(int64(gap)))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
