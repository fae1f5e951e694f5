// Command benchjson runs the pinned E-series benchmark workload and emits a
// machine-readable BENCH_<label>.json (schema: internal/benchfmt). CI's
// perf-smoke job runs it on every push, uploads the JSON as an artifact,
// and compares the measured throughput against the committed
// BENCH_baseline.json, failing on a >2x regression (see -compare /
// -max-regress).
//
// Usage:
//
//	benchjson -label baseline -out BENCH_baseline.json
//	benchjson -label pr -out BENCH_pr.json -compare BENCH_baseline.json
//
// The pinned workload is the metered-traffic experiment (E13's event-only
// mix) over a balanced 256-node tree: 8 concurrent clients submit 2048
// events each (seed 42) against the distributed unknown-U controller with
// M = 4× the trace size and W = M/2. Four paths are measured on identical
// traces: the serial Submit loop (inproc), the batched submission pipeline
// in chunks of 128 requests per client (inproc), the same chunked
// concurrent run driven through cmd/dynctrld's server stack over loopback
// TCP via the pooled wire client (tcp), and a durability pair at
// production fan-in — the same total trace spread over 64 connections,
// once without a WAL (tcp-fanin) and once with the internal/persist
// durability engine on, WAL group commit plus periodic snapshots
// (tcp-wal, durability "wal+snap"). Group commit amortizes the fsync
// across concurrent connections, so the durability comparison is pinned
// at the fan-in a production daemon actually serves; the report's
// wal_overhead field is tcp-fanin over tcp-wal throughput. A fifth
// measurement (tcp-openloop) schedules Poisson arrivals at a pinned rate
// against the loopback daemon and reports the coordinated-omission-safe
// p50/p99/p999 service latency in the measurement's latency block, plus
// the daemon's own per-stage quantiles (internal/obs batch traces) in the
// server_latency block. A sixth (tcp-fanin-noobs) repeats tcp-fanin with
// tracing disabled; the report's obs_overhead field is the untraced over
// traced throughput ratio and -max-obs-overhead gates it (tracing must
// stay cheap). A separate pinned churn run (E3's fully-dynamic mix)
// reports the amortized message complexity per topological change.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dynctrl/internal/benchfmt"
	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/obs"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/server"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// Pinned workload parameters. Changing any of these invalidates committed
// baselines; bump benchfmt.SchemaVersion and refresh BENCH_baseline.json
// when you do.
const (
	serialScenario        = "E13-metered-events-serial"
	pipelineScenario      = "E13-metered-events-pipeline"
	tcpScenario           = "E13-metered-events-wire"
	tcpFaninScenario      = "E13-metered-events-wire-fanin"
	tcpFaninNoobsScenario = "E13-metered-events-wire-fanin-noobs"
	tcpWalScenario        = "E13-metered-events-wire-wal"
	openLoopScenario      = "E13-metered-events-wire-openloop"
	churnScenario         = "E3-fully-dynamic-churn"

	// The open-loop run schedules openLoopTotal Poisson arrivals at
	// openLoopRate req/s against the loopback daemon and reports the
	// coordinated-omission-safe latency distribution (measured from each
	// request's *scheduled* arrival). The rate is pinned well below the
	// closed-loop tcp throughput so the baseline captures service latency,
	// not saturation collapse.
	openLoopRate    = 20_000.0
	openLoopTotal   = 20_000
	openLoopWorkers = 64

	// walClients is the connection fan-in of the durability pair; group
	// commit amortizes one fsync across every connection that decided a
	// batch inside the commit window.
	walClients = 64
	// walStreams is the number of concurrent client streams of the
	// durability pair, spread over the walClients connections: two
	// outstanding chunks per connection, so the next wave's controller
	// work overlaps the previous wave's fsync instead of idling behind it.
	walStreams = 128
	// walRounds replays the pinned trace this many times per measured run
	// of the durability pair: enough group-commit waves that one slow
	// fsync does not dominate the measurement.
	walRounds = 4
	// walSnapshotEvery pins the checkpoint cadence of the tcp-wal run to
	// the daemon's production default (server.DefaultSnapshotEvery): the
	// engine runs with snapshots armed, recovery-tested at boot and
	// checkpointed at shutdown, and a 64k-request measured window
	// contains as many periodic checkpoints as production would serve in
	// it (none).
	walSnapshotEvery = 0

	treeNodes = 256
	clients   = 8
	perClient = 2048
	chunk     = 128
	traceSeed = 42
	ctlSeed   = 3

	churnNodes = 128
	churnSeed  = 9

	// daemonSched labels the loopback-TCP measurements. The daemon's
	// centralized engine has no transport schedule, so -sched steers only
	// the in-process runs; the label stays what BENCH_baseline.json
	// recorded so the two reports remain comparable.
	daemonSched = "random"
)

func main() {
	label := flag.String("label", "local", "label naming this run (BENCH_<label>.json)")
	out := flag.String("out", "", "output path (default BENCH_<label>.json)")
	compare := flag.String("compare", "", "baseline JSON to compare against; exit 1 on regression")
	maxRegress := flag.Float64("max-regress", 2.0, "maximum tolerated ops/sec regression factor vs the baseline")
	maxObsOverhead := flag.Float64("max-obs-overhead", 1.03, "maximum tolerated tracing overhead ratio (tcp-fanin-noobs over tcp-fanin throughput)")
	runs := flag.Int("runs", 5, "measurement repetitions (best run is reported)")
	sched := flag.String("sched", "random", "transport scheduler for the pinned in-process runs (one of "+strings.Join(sim.SchedulerNames(), ", ")+")")
	flag.Parse()
	if _, err := sim.NewScheduler(*sched, ctlSeed); err != nil {
		fatalf("%v", err)
	}

	rep := benchfmt.Report{
		Label:     *label,
		Schema:    benchfmt.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workload: map[string]any{
			"experiment":     "E13-metered-pipeline",
			"tree":           fmt.Sprintf("balanced-%d", treeNodes),
			"clients":        clients,
			"per_client":     perClient,
			"chunk":          chunk,
			"mix":            "event-only",
			"seed":           traceSeed,
			"scheduler":      *sched,
			"churn_scenario": churnScenario,
		},
		Results: map[string]benchfmt.Measurement{},
	}

	total := clients * perClient
	m := int64(total) * 4
	w := m / 2
	rep.Workload["m"] = m
	rep.Workload["w"] = w

	serialM := measure(*runs, total, func() (func(), func() int64, func()) {
		tr := buildBenchTree()
		tp := benchTransport(*sched)
		ctl := tp.NewDynamic(tr, m, w)
		ct := buildBenchTrace(tr)
		reqs := ct.Serial()
		rt := costSampler(tp, ctl)
		return func() {
			for _, req := range reqs {
				if _, err := ctl.Submit(req); err != nil {
					fatalf("serial submit: %v", err)
				}
			}
		}, rt, nil
	})
	serialM.Scenario, serialM.Scheduler, serialM.Transport = serialScenario, *sched, benchfmt.TransportInproc
	serialM.Durability = benchfmt.DurabilityNone
	rep.Results["serial"] = serialM

	pipeM := measure(*runs, total, func() (func(), func() int64, func()) {
		tr := buildBenchTree()
		tp := benchTransport(*sched)
		ctl := tp.NewDynamic(tr, m, w)
		pl := pipeline.New(ctl)
		ct := buildBenchTrace(tr)
		rt := costSampler(tp, ctl)
		return func() {
			res := workload.RunConcurrentChunked(pl, ct, chunk)
			if res.Errors > 0 {
				fatalf("pipeline run: %d request errors", res.Errors)
			}
		}, rt, nil
	})
	pipeM.Scenario, pipeM.Scheduler, pipeM.Transport = pipelineScenario, *sched, benchfmt.TransportInproc
	pipeM.Durability = benchfmt.DurabilityNone
	rep.Results["pipeline"] = pipeM

	tcpM := measure(*runs, total, func() (func(), func() int64, func()) {
		return setupTCP(m, w, clients, clients, 1, "", 0)
	})
	tcpM.Scenario, tcpM.Scheduler, tcpM.Transport = tcpScenario, daemonSched, benchfmt.TransportTCP
	tcpM.Durability = benchfmt.DurabilityNone
	rep.Results["tcp"] = tcpM

	// The durability pair replays the trace walRounds times per measured
	// run, so its permit budget scales accordingly.
	walM := m * walRounds
	// The fan-in scenario and its tracing-overhead companion — the
	// identical run with batch tracing and stage histograms disabled
	// (-trace-ring -1) — are measured as an interleaved pair so machine
	// drift cancels out of the obs_overhead ratio gated below.
	tcpFaninM, tcpFaninNoobsM := measurePair(*runs, total*walRounds,
		func() (func(), func() int64, func()) {
			return setupTCP(walM, walM/2, walClients, walStreams, walRounds, "", 0)
		},
		func() (func(), func() int64, func()) {
			return setupTCP(walM, walM/2, walClients, walStreams, walRounds, "", -1)
		})
	tcpFaninM.Scenario, tcpFaninM.Scheduler, tcpFaninM.Transport = tcpFaninScenario, daemonSched, benchfmt.TransportTCP
	tcpFaninM.Durability = benchfmt.DurabilityNone
	rep.Results["tcp-fanin"] = tcpFaninM
	tcpFaninNoobsM.Scenario, tcpFaninNoobsM.Scheduler, tcpFaninNoobsM.Transport = tcpFaninNoobsScenario, daemonSched, benchfmt.TransportTCP
	tcpFaninNoobsM.Durability = benchfmt.DurabilityNone
	rep.Results["tcp-fanin-noobs"] = tcpFaninNoobsM

	tcpWalM := measure(*runs, total*walRounds, func() (func(), func() int64, func()) {
		walDir, err := os.MkdirTemp("", "benchjson-wal-")
		if err != nil {
			fatalf("wal dir: %v", err)
		}
		run, msgs, cleanup := setupTCP(walM, walM/2, walClients, walStreams, walRounds, walDir, 0)
		return run, msgs, func() {
			cleanup()
			os.RemoveAll(walDir)
		}
	})
	tcpWalM.Scenario, tcpWalM.Scheduler, tcpWalM.Transport = tcpWalScenario, daemonSched, benchfmt.TransportTCP
	tcpWalM.Durability = benchfmt.DurabilityWALSnap
	rep.Results["tcp-wal"] = tcpWalM

	openM := measureOpenLoop(*runs)
	rep.Results["tcp-openloop"] = openM
	rep.Workload["open_rate"] = openLoopRate
	rep.Workload["open_total"] = openLoopTotal

	rep.PipelineSpeedup = rep.Results["pipeline"].OpsPerSec / rep.Results["serial"].OpsPerSec
	rep.MessagesPerChange = measureChurnMessages(*sched)
	rep.Workload["wal_overhead"] = rep.Results["tcp-fanin"].OpsPerSec / rep.Results["tcp-wal"].OpsPerSec

	// Observability tax: how much throughput the untraced run gains over
	// the traced one on the identical workload. The instrumentation is
	// designed to be invisible at this fan-in; fail loudly if it is not.
	obsOverhead := rep.Results["tcp-fanin-noobs"].OpsPerSec / rep.Results["tcp-fanin"].OpsPerSec
	rep.Workload["obs_overhead"] = obsOverhead
	fmt.Fprintf(os.Stderr, "benchjson: tracing overhead %.3fx (untraced %.0f ops/s, traced %.0f ops/s)\n",
		obsOverhead, rep.Results["tcp-fanin-noobs"].OpsPerSec, rep.Results["tcp-fanin"].OpsPerSec)
	if obsOverhead > *maxObsOverhead {
		fatalf("tracing overhead %.3fx exceeds the %.2fx budget:"+
			" tcp-fanin %.0f ops/s traced vs %.0f ops/s untraced",
			obsOverhead, *maxObsOverhead,
			rep.Results["tcp-fanin"].OpsPerSec, rep.Results["tcp-fanin-noobs"].OpsPerSec)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *label)
	}
	buf, err := rep.WriteFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(buf)

	if *compare != "" {
		base, err := benchfmt.ReadFile(*compare)
		if err != nil {
			fatalf("%v", err)
		}
		if err := benchfmt.CompareBaseline(base, rep, *maxRegress, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: within %.1fx of %s\n", *maxRegress, *compare)
	}
}

// setupTCP builds one pinned loopback-TCP measurement: a dynctrld server
// stack (durable over walDir when non-empty), a pool of conns
// connections, and the pinned total trace re-partitioned across streams
// concurrent client streams (same constructor, same seed) and replayed
// rounds times per measured run. traceRing is the server's batch-trace
// ring size (0 = production default, negative disables tracing). It
// returns no message sampler: the daemon's engine moves packages directly,
// so messages_per_op is a metric of the in-process dist rows only.
func setupTCP(m, w int64, conns, streams, rounds int, walDir string, traceRing int) (func(), func() int64, func()) {
	srv, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Topology:      workload.TopologySpec{Kind: "balanced", Nodes: treeNodes},
		Seed:          1,
		M:             m,
		W:             w,
		WALDir:        walDir,
		SnapshotEvery: walSnapshotEvery,
		TraceRing:     traceRing,
	})
	if err != nil {
		fatalf("tcp server: %v", err)
	}
	if err := srv.Start(); err != nil {
		fatalf("tcp server start: %v", err)
	}
	cl, err := client.Dial(srv.Addr(), client.Options{Conns: conns})
	if err != nil {
		fatalf("tcp dial: %v", err)
	}
	tr := buildBenchTree()
	ct, err := workload.NewConcurrentTrace(tr, streams, clients*perClient/streams, workload.EventOnlyConcurrentMix(), traceSeed)
	if err != nil {
		fatalf("build trace: %v", err)
	}
	cleanup := func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}
	return func() {
		for i := 0; i < rounds; i++ {
			res := workload.RunConcurrentChunked(cl, ct, chunk)
			if res.Errors > 0 {
				fatalf("tcp run: %d request errors", res.Errors)
			}
		}
	}, nil, cleanup
}

// measureOpenLoop runs the pinned open-loop experiment `runs` times
// against a fresh loopback daemon each time and reports the run with the
// best p99 (the least-noisy latency estimate, the open-loop analogue of
// taking the fastest closed-loop run).
func measureOpenLoop(runs int) benchfmt.Measurement {
	if runs < 1 {
		runs = 1
	}
	m := int64(openLoopTotal) * 4
	var best benchfmt.Measurement
	for i := 0; i < runs; i++ {
		srv, err := server.New(server.Config{
			Addr:     "127.0.0.1:0",
			Topology: workload.TopologySpec{Kind: "balanced", Nodes: treeNodes},
			Seed:     1,
			M:        m,
			W:        m / 2,
		})
		if err != nil {
			fatalf("open-loop server: %v", err)
		}
		if err := srv.Start(); err != nil {
			fatalf("open-loop server start: %v", err)
		}
		cl, err := client.Dial(srv.Addr(), client.Options{Conns: clients})
		if err != nil {
			fatalf("open-loop dial: %v", err)
		}
		ct := buildBenchTrace(buildBenchTree())
		res, err := workload.RunOpenLoop(cl, ct.Serial(), workload.OpenLoopSpec{
			Rate:    openLoopRate,
			Arrival: workload.ArrivalPoisson,
			Total:   openLoopTotal,
			Workers: openLoopWorkers,
			Seed:    traceSeed,
		})
		if err != nil {
			fatalf("open-loop run: %v", err)
		}
		if res.Errors > 0 {
			fatalf("open-loop run: %d request errors", res.Errors)
		}
		cl.Close()
		// Read the daemon's stage histograms before Shutdown tears the
		// tenant stacks down.
		srvLat := serverLatency(srv.TenantStageStats(wire.DefaultTenant))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck
		cancel()

		cur := benchfmt.Measurement{
			Scenario:   openLoopScenario,
			Scheduler:  daemonSched,
			Transport:  benchfmt.TransportTCP,
			Durability: benchfmt.DurabilityNone,
			NsPerOp:    float64(res.Elapsed.Nanoseconds()) / float64(openLoopTotal),
			OpsPerSec:  res.AchievedRate,
			Latency: &benchfmt.Latency{
				Unit:       "ns",
				P50:        float64(res.Hist.Quantile(0.50)),
				P99:        float64(res.Hist.Quantile(0.99)),
				P999:       float64(res.Hist.Quantile(0.999)),
				Max:        float64(res.Hist.Max()),
				Mean:       res.Hist.Mean(),
				Count:      res.Hist.Count(),
				TargetRate: openLoopRate,
				Arrival:    benchfmt.ArrivalPoisson,
			},
			ServerLatency: srvLat,
		}
		if i == 0 || cur.Latency.P99 < best.Latency.P99 {
			best = cur
		}
	}
	if best.ServerLatency == nil {
		fatalf("open-loop run recorded no server-side stage samples (tracing disabled?)")
	}
	// Sanity-check the reconciliation invariant on the reported run: the
	// client-observed p99 is charged from the scheduled arrival, so it
	// bounds everything the server measured — the non-total stage p99s
	// must sum to no more than it.
	var stageSum float64
	for name, sl := range best.ServerLatency.Stages {
		if name != "total" {
			stageSum += sl.P99
		}
	}
	if stageSum > best.Latency.P99 {
		fatalf("server stage p99s sum to %.0f ns, exceeding the client-observed p99 of %.0f ns:"+
			" stage attribution is double-counting", stageSum, best.Latency.P99)
	}
	return best
}

// serverLatency converts the server's per-stage histogram snapshot into
// the report's server_latency block (nil when no batch was traced).
func serverLatency(stats []obs.StageStats) *benchfmt.ServerLatency {
	stages := map[string]benchfmt.StageLatency{}
	for _, ss := range stats {
		if ss.Count == 0 {
			continue
		}
		stages[ss.Stage] = benchfmt.StageLatency{
			P50:   float64(ss.P50),
			P99:   float64(ss.P99),
			P999:  float64(ss.P999),
			Count: ss.Count,
		}
	}
	if len(stages) == 0 {
		return nil
	}
	return &benchfmt.ServerLatency{Unit: "ns", Stages: stages}
}

// benchTransport builds the pinned transport; the scheduler name was
// validated at flag-parse time.
func benchTransport(sched string) controller.Transport {
	rt, err := sim.NewRuntime(sched, ctlSeed)
	if err != nil {
		fatalf("%v", err)
	}
	return dist.Over(rt)
}

func buildBenchTree() *tree.Tree {
	tr, _ := tree.New()
	if err := workload.BuildBalanced(tr, treeNodes, 1); err != nil {
		fatalf("build tree: %v", err)
	}
	return tr
}

func buildBenchTrace(tr *tree.Tree) *workload.ConcurrentTrace {
	ct, err := workload.NewConcurrentTrace(tr, clients, perClient, workload.EventOnlyConcurrentMix(), traceSeed)
	if err != nil {
		fatalf("build trace: %v", err)
	}
	return ct
}

// costSampler returns a sampler of the controller's total message count.
func costSampler(tp controller.Transport, ctl *controller.Dynamic) func() int64 {
	return func() int64 { return tp.Cost(ctl.Counters()) }
}

// measure runs setup+run `runs` times and reports the best run (standard
// benchmarking practice: the minimum is the least-noisy estimate) with
// allocation and message counts from that run. setup may return a cleanup
// (run after the measurement; e.g. a server teardown) and a nil message
// sampler.
func measure(runs, requests int, setup func() (func(), func() int64, func())) benchfmt.Measurement {
	if runs < 1 {
		runs = 1
	}
	best := benchfmt.Measurement{NsPerOp: float64(0)}
	for i := 0; i < runs; i++ {
		cur := measureOnce(requests, setup)
		if i == 0 || cur.NsPerOp < best.NsPerOp {
			best = cur
		}
	}
	return best
}

// measurePair measures two setups interleaved run-for-run (a, b, a, b,
// ...) instead of as two sequential best-of phases. Slow machine drift —
// thermal throttling, page-cache state, background load — then hits both
// sides of every round equally and cancels out of their throughput
// ratio, which is the only reason a pair is measured together at all.
func measurePair(runs, requests int, a, b func() (func(), func() int64, func())) (benchfmt.Measurement, benchfmt.Measurement) {
	if runs < 1 {
		runs = 1
	}
	var bestA, bestB benchfmt.Measurement
	for i := 0; i < runs; i++ {
		curA := measureOnce(requests, a)
		curB := measureOnce(requests, b)
		if i == 0 || curA.NsPerOp < bestA.NsPerOp {
			bestA = curA
		}
		if i == 0 || curB.NsPerOp < bestB.NsPerOp {
			bestB = curB
		}
	}
	return bestA, bestB
}

// measureOnce runs one fresh setup/run/cleanup cycle and returns its
// measurement.
func measureOnce(requests int, setup func() (func(), func() int64, func())) benchfmt.Measurement {
	run, msgs, cleanup := setup()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var m0 int64
	if msgs != nil {
		m0 = msgs()
	}
	t0 := time.Now()
	run()
	dt := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	cur := benchfmt.Measurement{
		NsPerOp:     float64(dt.Nanoseconds()) / float64(requests),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(requests),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(requests),
	}
	if msgs != nil {
		cur.MsgsPerOp = float64(msgs()-m0) / float64(requests)
	}
	cur.OpsPerSec = 1e9 / cur.NsPerOp
	if cleanup != nil {
		cleanup()
	}
	return cur
}

// measureChurnMessages replays the pinned fully-dynamic churn (E3's mix)
// through a fresh distributed controller and returns the amortized message
// complexity per topological change.
func measureChurnMessages(sched string) float64 {
	tr, _ := tree.New()
	if err := workload.BuildBalanced(tr, churnNodes, 1); err != nil {
		fatalf("churn tree: %v", err)
	}
	counters := stats.NewCounters()
	rt, err := sim.NewRuntime(sched, churnSeed)
	if err != nil {
		fatalf("%v", err)
	}
	tp := dist.Over(rt)
	m := int64(16 * churnNodes)
	ctl := tp.NewDynamic(tr, m, 0, controller.WithDynamicCounters(counters))
	gen := workload.NewChurn(tr, workload.Mix{AddLeaf: 30, RemoveLeaf: 25, AddInternal: 20, RemoveInternal: 25}, churnSeed)
	gen.SetMinSize(churnNodes / 4)
	for i := 0; i < 4*churnNodes; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := ctl.Submit(req); err != nil {
			fatalf("churn submit: %v", err)
		}
	}
	changes := counters.Get(stats.CounterTopoChanges)
	if changes == 0 {
		return 0
	}
	return float64(tp.Cost(counters)) / float64(changes)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
