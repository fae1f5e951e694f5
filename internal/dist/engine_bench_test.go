package dist_test

import (
	"runtime"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/workload"
)

// growTrace is the gated benchmark's grow-mix at its own size and drawn its
// way: 50 000 requests from two connections, every one at a node of the
// initial balanced tree of 256 and half of them adding a leaf there, with
// M = 200 000 and W = 100 000. The tree ends near 25 000 nodes and the
// unknown-U driver restarts its iteration a dozen times on the way, so the
// per-node tables are built, grown and rebuilt the way the daemon does it.
var growTrace = engineTrace{name: "grow-50k", m: 200_000, w: 100_000, build: balanced(256, 1),
	mix: workload.Mix{AddLeaf: 50, Event: 50}, steps: 50_000, fixedNodes: true}

// churnTrace is all four change kinds over a balanced tree of 4 096, and
// deepTrace is deep-exhaust at the benchmark's own size: a path of 8 192 with
// M = 32 a node.
var (
	churnTrace = engineTrace{name: "churn", m: 1 << 20, w: 1 << 18, build: balanced(4096, 1),
		mix: workload.DefaultMix(), steps: 1 << 15, minSize: 1024}
	deepTrace = engineTrace{name: "deep", m: 1 << 18, w: 1 << 12, build: path(8192),
		mix: workload.EventOnlyMix(), steps: 1 << 19}
)

// recordTrace generates wl's requests. A fixedNodes trace is two
// connections' streams over the initial tree, taken in turns of 128; any
// other is generated against a centralized engine that answers the requests
// as they come: the generator reads the tree the engine mutates, and both
// engines mutate it identically.
func recordTrace(tb testing.TB, wl engineTrace) []controller.Request {
	tb.Helper()
	if wl.fixedNodes {
		mix := workload.ConcurrentMix{Event: wl.mix.Event, AddLeaf: wl.mix.AddLeaf}
		ct, err := workload.NewConcurrentTrace(wl.build(tb), 2, wl.steps/2, mix, 1)
		if err != nil {
			tb.Fatal(err)
		}
		reqs := make([]controller.Request, 0, wl.steps)
		for at := 0; len(reqs) < wl.steps; at += 128 {
			for _, c := range ct.Clients {
				reqs = append(reqs, c[at:min(at+128, len(c))]...)
			}
		}
		return reqs
	}
	rec := newEngine(tb, false, wl)
	gen := workload.NewChurn(rec.tr, wl.mix, 5)
	reqs := make([]controller.Request, 0, wl.steps)
	for len(reqs) < wl.steps {
		req, ok := gen.Next()
		if !ok {
			tb.Fatal("generator dried up")
		}
		if _, err := rec.d.Submit(req); err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// replay answers reqs through e in chunks of 128, the daemon's batch size.
func (e *engine) replay(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	for at := 0; at < len(reqs); at += 128 {
		out = e.d.SubmitBatch(reqs[at:min(at+128, len(reqs))], out[:0])
	}
	return out
}

// BenchmarkEngineSubmitBatch is the apples-to-apples engine number: the one
// unknown-U driver answering the same recorded trace through SubmitBatch in
// chunks of 128, over the centralized core and over the message-passing
// core. The workloads mirror the gated benchmark's regimes: static-package
// grants, half the requests growing the tree, and scarce permits on a path
// with the reject wave at half time. The grow row is 8 192 steps and
// restarts its iteration too rarely to show the per-iteration tables;
// grow-50k is grow-mix at the benchmark's own size. The churn row is all four
// change kinds over a balanced tree of 4 096: two requests in five split an
// edge or delete an internal node, which moves a subtree one level and every
// express link in it, so the row shows whether keeping the whiteboards' block
// counts costs that subtree or the tree. The deep row is deep-exhaust at the
// benchmark's own size: a path of 8 192 with M = 32 a node, where a
// slow-path request climbs 385 edges past some 4 marked nodes, in 21 express
// links and 52 hops, and the containers under the protocol set the number.
// One iteration is one fresh engine replaying the whole trace; ns/req is the
// number to read.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	workloads := []engineTrace{
		{name: "events", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.EventOnlyMix(), steps: 1 << 16},
		{name: "grow", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.Mix{AddLeaf: 50, Event: 50}, steps: 1 << 13},
		growTrace,
		churnTrace,
		{name: "exhaust", m: 1 << 13, w: 1 << 10, build: path(128), mix: workload.EventOnlyMix(), steps: 1 << 14},
		deepTrace,
	}
	for _, wl := range workloads {
		// Record the trace once, when the first selected sub-benchmark asks
		// for it.
		var reqs []controller.Request
		for _, engineName := range []string{"centralized", "distributed"} {
			b.Run(engineName+"/"+wl.name, func(b *testing.B) {
				if reqs == nil {
					reqs = recordTrace(b, wl)
				}
				var out []controller.BatchResult
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := newEngine(b, engineName == "distributed", wl)
					b.StartTimer()
					out = e.replay(reqs, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
			})
		}
	}
}

// replayAllocs answers wl's trace through a fresh centralized engine and
// returns the heap allocations a request, counted without reading a clock
// (the count is the same under -race), and the engine.
func replayAllocs(t *testing.T, wl engineTrace) (float64, *engine) {
	reqs := recordTrace(t, wl)
	e := newEngine(t, false, wl)
	out := make([]controller.BatchResult, 0, 128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.replay(reqs, out)
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
	t.Logf("%s: %.3f allocations and %.0f B a request over %d iterations to %d nodes", wl.name,
		perReq, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(reqs)), e.d.Iterations(), e.tr.Size())
	return perReq, e
}

// TestEngineGrowAllocs gates what a topological change costs the allocator:
// the centralized engine answers growTrace with at most 0.05 heap
// allocations a request (0.043). Packages are values in their stores and
// cost none, and a store keeps its backing array across iteration restarts;
// what is left is a node's child list as it grows and the tables' own growth
// steps. 8-byte links with each store's array dropped at every restart put
// the count at 0.100, a package allocated per move at 0.76, a node or a
// store allocated per added leaf, or tables rebuilt per restart, at 1.75.
func TestEngineGrowAllocs(t *testing.T) {
	perReq, e := replayAllocs(t, growTrace)
	if it, n := e.d.Iterations(), e.tr.Size(); it < 10 || n < 20_000 {
		t.Fatalf("trace ran %d iterations to %d nodes: not the grow-mix shape (12 iterations, about 25 000 nodes)", it, n)
	}
	if perReq > 0.05 {
		t.Errorf("%.3f allocations a request, want at most 0.05", perReq)
	}
}

// TestEngineDeepAllocs gates the slow path: on deepTrace nearly every
// request below the top of the path climbs to a filler, splits it at the
// drop points and lands a static package, and the centralized engine does it
// with at most 0.04 allocations a request (0.032; 0.047 with a store's array
// dropped by each Clear, 0.35 with a package allocated per split).
func TestEngineDeepAllocs(t *testing.T) {
	if perReq, _ := replayAllocs(t, deepTrace); perReq > 0.04 {
		t.Errorf("%.3f allocations a request, want at most 0.04", perReq)
	}
}

// TestEngineChurnAllocs gates graceful deletions: on churnTrace the
// centralized handoff appends a deleted node's packages straight into its
// parent's store, without copying them into a slice of their own first, and
// the engine answers with at most 0.8 allocations a request (0.732; 1.314
// with 8-byte links and each store's array dropped at every restart, 2.23
// then with the packages copied out first too, 3.0 with every package
// allocated as well). What is left is tree child lists, each new node's first static
// package and the parents' stores growing as they absorb.
func TestEngineChurnAllocs(t *testing.T) {
	if perReq, _ := replayAllocs(t, churnTrace); perReq > 0.8 {
		t.Errorf("%.3f allocations a request, want at most 0.8", perReq)
	}
}

// TestTableBytesPerID bounds every byte the centralized engine keeps for an
// id on growTrace: the tree's node, list and express tables, its child lists'
// backing arrays and its parent and depth slices, and the whiteboards' store
// table, level masks and block rows, each at its capacity. Almost all of the
// 25 000 leaves the trace adds hold neither a child nor a package, and the
// engine keeps at most 72 B for every id ever handed out (70.6). 8-byte
// parent and express links, masks and child-list entries put it at 90.0.
func TestTableBytesPerID(t *testing.T) {
	reqs := recordTrace(t, growTrace)
	e := newEngine(t, false, growTrace)
	e.replay(reqs, make([]controller.BatchResult, 0, 128))
	tree, boards, ids := e.tr.TableBytes(), e.d.TableBytes(), e.tr.EverExisted()+1
	perID := float64(tree+boards) / float64(ids)
	t.Logf("%d ids: %d B of tree tables, %d B of whiteboard tables, %.1f B an id", ids, tree, boards, perID)
	if perID > 72 {
		t.Errorf("%.1f B an id in the tree's and the whiteboards' tables, want at most 72", perID)
	}
}
