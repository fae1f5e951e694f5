package pipeline_test

import (
	"fmt"
	"sync"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func buildTree(t testing.TB, n int, seed int64) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, seed); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPipelineSafetyUnderConcurrentChurn is the concurrent-submitter safety
// table: whatever the client count and mix, the total number of granted
// permits never exceeds M. Run under -race this also checks that the lock
// covers everything the submitters share.
func TestPipelineSafetyUnderConcurrentChurn(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		m, w    int64
		clients int
		perCl   int
		mix     workload.ConcurrentMix
	}{
		{"events-exhausting", 32, 300, 60, 8, 100, workload.EventOnlyConcurrentMix()},
		{"event-heavy-churn", 48, 500, 100, 6, 200, workload.EventHeavyConcurrentMix()},
		{"growth-exhausting", 24, 400, 80, 4, 300, workload.ConcurrentMix{Event: 50, AddLeaf: 50}},
		{"single-client", 16, 200, 40, 1, 400, workload.EventHeavyConcurrentMix()},
		{"tiny-batches", 32, 250, 50, 12, 50, workload.EventOnlyConcurrentMix()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildTree(t, tc.n, 1)
			ctl := dist.Over(sim.NewDeterministic(7)).NewDynamic(tr, tc.m, tc.w)
			pl := pipeline.New(ctl)
			ct, err := workload.NewConcurrentTrace(tr, tc.clients, tc.perCl, tc.mix, 11)
			if err != nil {
				t.Fatal(err)
			}
			res := workload.RunConcurrent(pl, ct)
			pl.Flush()
			if res.Errors > 0 {
				t.Fatalf("unexpected submit errors: %d", res.Errors)
			}
			if res.Granted > tc.m {
				t.Fatalf("safety violated: %d permits granted, M = %d", res.Granted, tc.m)
			}
			if got := ctl.Counters().Get(stats.CounterGrants); got != res.Granted {
				t.Fatalf("grant accounting: clients saw %d grants, counters say %d", res.Granted, got)
			}
			if res.Granted+res.Rejected != res.Submitted {
				t.Fatalf("outcomes %d+%d do not cover %d submissions",
					res.Granted, res.Rejected, res.Submitted)
			}
			st := pl.Stats()
			if st.Requests != res.Submitted {
				t.Fatalf("pipeline saw %d requests, clients submitted %d", st.Requests, res.Submitted)
			}
			if st.Batches != st.Calls {
				t.Fatalf("%d batches for %d calls: every call is one run under the lock", st.Batches, st.Calls)
			}
		})
	}
}

// TestBatchSerialEquivalenceCentralized replays identical churn traces
// through a serially driven and a batch-driven centralized unknown-U
// controller, the driver the daemon serves with: the grant/reject sequence,
// serial numbers and cost counters must match exactly. The cases cover a
// budget that runs out, one roomy enough that batches take the whiteboard
// fast path, and a long trace that does both.
func TestBatchSerialEquivalenceCentralized(t *testing.T) {
	cases := []struct {
		name  string
		m     int64
		steps int
	}{
		{"exhausting", 300, 600},
		{"fast-path", 3000, 600},
		{"fast-path-then-exhausting", 1500, 3000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchSerialCentralized(t, tc.m, tc.steps)
		})
	}
}

func batchSerialCentralized(t *testing.T, m int64, steps int) {
	const n, batchSize = 64, 7
	trSerial := buildTree(t, n, 3)
	trBatch := buildTree(t, n, 3)
	serial := controller.NewDynamic(trSerial, m, m/2)
	batch := controller.Centralized.NewDynamic(trBatch, m, m/2)

	// The generator runs against the serial tree; both trees evolve
	// identically while outcomes agree, so the recorded requests stay valid
	// on the batch side.
	gen := workload.NewChurn(trSerial, workload.DefaultMix(), 17)
	gen.SetMinSize(n / 2)

	var reqs []controller.Request
	var want []controller.Grant
	for i := 0; i < steps; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		g, err := serial.Submit(req)
		if err != nil {
			t.Fatalf("serial submit %d: %v", i, err)
		}
		reqs = append(reqs, req)
		want = append(want, g)
	}

	var got []controller.BatchResult
	for lo := 0; lo < len(reqs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(reqs) {
			hi = len(reqs)
		}
		got = batch.SubmitBatch(reqs[lo:hi], got)
	}
	if len(got) != len(want) {
		t.Fatalf("batch answered %d of %d requests", len(got), len(want))
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("batch request %d failed: %v", i, got[i].Err)
		}
		if got[i].Grant.Outcome != want[i].Outcome || got[i].Grant.Serial != want[i].Serial {
			t.Fatalf("request %d: batch %+v, serial %+v", i, got[i].Grant, want[i])
		}
	}
	if s, b := serial.Granted(), batch.Granted(); s != b {
		t.Fatalf("granted: serial %d, batch %d", s, b)
	}
	for _, key := range []stats.Counter{stats.CounterGrants, stats.CounterRejects, stats.CounterMoves} {
		if s, b := serial.Counters().Get(key), batch.Counters().Get(key); s != b {
			t.Fatalf("counter %s: serial %d, batch %d", key, s, b)
		}
	}
}

// TestBatchSerialEquivalenceDistributed is the same equivalence over the
// distributed unknown-U controller, including message accounting.
func TestBatchSerialEquivalenceDistributed(t *testing.T) {
	const n, batchSize = 48, 13
	trSerial := buildTree(t, n, 5)
	trBatch := buildTree(t, n, 5)
	m, w := int64(400), int64(80)
	rtSerial := sim.NewDeterministic(23)
	rtBatch := sim.NewDeterministic(23)
	serial := dist.Over(rtSerial).NewDynamic(trSerial, m, w)
	batch := dist.Over(rtBatch).NewDynamic(trBatch, m, w)

	ct, err := workload.NewConcurrentTrace(trSerial, 4, 200, workload.EventHeavyConcurrentMix(), 29)
	if err != nil {
		t.Fatal(err)
	}
	reqs := ct.Serial()

	var want []controller.Grant
	for i, req := range reqs {
		g, err := serial.Submit(req)
		if err != nil {
			t.Fatalf("serial submit %d: %v", i, err)
		}
		want = append(want, g)
	}
	var got []controller.BatchResult
	for lo := 0; lo < len(reqs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(reqs) {
			hi = len(reqs)
		}
		got = batch.SubmitBatch(reqs[lo:hi], got)
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("batch request %d failed: %v", i, got[i].Err)
		}
		if got[i].Grant.Outcome != want[i].Outcome {
			t.Fatalf("request %d: batch outcome %v, serial %v", i, got[i].Grant.Outcome, want[i].Outcome)
		}
	}
	if s, b := serial.Granted(), batch.Granted(); s != b {
		t.Fatalf("granted: serial %d, batch %d", s, b)
	}
	if s, b := rtSerial.Messages(), rtBatch.Messages(); s != b {
		t.Fatalf("transport messages: serial %d, batch %d", s, b)
	}
	if s, b := dist.Over(rtSerial).Cost(serial.Counters()), dist.Over(rtBatch).Cost(batch.Counters()); s != b {
		t.Fatalf("total messages: serial %d, batch %d", s, b)
	}
}

// TestPipelineMatchesSerialOutcomeTotals drives the same trace once
// serially and once through the concurrent pipeline; the aggregate
// grant/reject totals must agree (per-request outcomes may differ in
// ordering, which is exactly the nondeterminism of concurrent arrival).
func TestPipelineMatchesSerialOutcomeTotals(t *testing.T) {
	const n = 40
	m, w := int64(350), int64(70)
	trSerial := buildTree(t, n, 9)
	trPipe := buildTree(t, n, 9)
	serial := dist.Over(sim.NewDeterministic(31)).NewDynamic(trSerial, m, w)
	pipeCtl := dist.Over(sim.NewDeterministic(31)).NewDynamic(trPipe, m, w)
	pl := pipeline.New(pipeCtl)

	ct, err := workload.NewConcurrentTrace(trSerial, 6, 150, workload.EventOnlyConcurrentMix(), 37)
	if err != nil {
		t.Fatal(err)
	}
	var serGranted, serRejected int64
	for _, req := range ct.Serial() {
		g, err := serial.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		switch g.Outcome {
		case controller.Granted:
			serGranted++
		case controller.Rejected:
			serRejected++
		}
	}
	res := workload.RunConcurrent(pl, ct)
	if res.Errors > 0 {
		t.Fatalf("pipeline errors: %d", res.Errors)
	}
	// Event-only traces on a fixed tree are permutation-invariant: the
	// controller grants exactly min(requests, budget) permits either way.
	if res.Granted != serGranted || res.Rejected != serRejected {
		t.Fatalf("pipeline granted/rejected %d/%d, serial %d/%d",
			res.Granted, res.Rejected, serGranted, serRejected)
	}
}

// TestPipelineErrorPropagation checks that a per-request error (an invalid
// node) reaches exactly the submitter that caused it.
func TestPipelineErrorPropagation(t *testing.T) {
	tr := buildTree(t, 16, 13)
	ctl := dist.Over(sim.NewDeterministic(41)).NewDynamic(tr, 100, 20)
	pl := pipeline.New(ctl)
	if _, err := pl.Submit(controller.Request{Node: tree.NodeID(999), Kind: tree.None}); err == nil {
		t.Fatal("submit at unknown node: want error, got nil")
	}
	if g, err := pl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil || g.Outcome != controller.Granted {
		t.Fatalf("valid submit after failed one: grant %+v, err %v", g, err)
	}
}

// TestPipelineFlushAndClose checks the barrier semantics of Flush and that
// Close rejects later submissions.
func TestPipelineFlushAndClose(t *testing.T) {
	tr := buildTree(t, 16, 15)
	ctl := dist.Over(sim.NewDeterministic(43)).NewDynamic(tr, 1000, 200)
	pl := pipeline.New(ctl)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := pl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pl.Flush() // must not deadlock with no work pending
	if got := pl.Stats().Requests; got != 200 {
		t.Fatalf("pipeline saw %d requests, want 200", got)
	}
	pl.Close()
	if _, err := pl.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != pipeline.ErrClosed {
		t.Fatalf("submit after close: want ErrClosed, got %v", err)
	}
}

// benchWorkload pins the E-series workload both benchmark paths share: the
// metered-traffic experiment (E13's event-only mix) over a balanced
// 256-node tree, with the permit budget sized generously (M = 4× the
// trace) so every request is granted on both paths and the measured
// quantity is pure submission throughput.
func benchWorkload(b *testing.B, clients, perClient int) (*tree.Tree, *workload.ConcurrentTrace, int64, int64) {
	b.Helper()
	const n = 256
	tr := buildTree(b, n, 1)
	total := int64(clients*perClient) * 4
	m, w := total, total/2
	ct, err := workload.NewConcurrentTrace(tr, clients, perClient, workload.EventOnlyConcurrentMix(), 42)
	if err != nil {
		b.Fatal(err)
	}
	return tr, ct, m, w
}

// BenchmarkSubmitSerial is the baseline: the pinned workload driven
// request-by-request through the public controller's serial Submit loop.
func BenchmarkSubmitSerial(b *testing.B) {
	for _, clients := range []int{8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr, ct, m, w := benchWorkload(b, clients, 2048)
				ctl := dist.Over(sim.NewDeterministic(3)).NewDynamic(tr, m, w)
				reqs := ct.Serial()
				b.StartTimer()
				for _, req := range reqs {
					if _, err := ctl.Submit(req); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(reqs)), "req/iter")
			}
		})
	}
}

// BenchmarkSubmitPipeline drives the identical workload through the
// pipeline from concurrent clients streaming chunks of 64 requests: the
// batch fast path and one lock acquisition per chunk against the serial
// loop's full protocol per request.
func BenchmarkSubmitPipeline(b *testing.B) {
	for _, clients := range []int{8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr, ct, m, w := benchWorkload(b, clients, 2048)
				ctl := dist.Over(sim.NewDeterministic(3)).NewDynamic(tr, m, w)
				pl := pipeline.New(ctl)
				b.StartTimer()
				res := workload.RunConcurrentChunked(pl, ct, 64)
				if res.Errors > 0 {
					b.Fatalf("errors: %d", res.Errors)
				}
				b.ReportMetric(float64(res.Submitted), "req/iter")
			}
		})
	}
}

// BenchmarkSubmitPipelinePerRequest is the worst case for the pipeline:
// every client blocks on every single request (no chunking), so each
// request pays for the lock, contended at -cpu 2 and above.
func BenchmarkSubmitPipelinePerRequest(b *testing.B) {
	for _, clients := range []int{8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr, ct, m, w := benchWorkload(b, clients, 2048)
				ctl := dist.Over(sim.NewDeterministic(3)).NewDynamic(tr, m, w)
				pl := pipeline.New(ctl)
				b.StartTimer()
				res := workload.RunConcurrent(pl, ct)
				if res.Errors > 0 {
					b.Fatalf("errors: %d", res.Errors)
				}
				b.ReportMetric(float64(res.Submitted), "req/iter")
			}
		})
	}
}
