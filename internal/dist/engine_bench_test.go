package dist_test

import (
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/workload"
)

// BenchmarkEngineSubmitBatch is the apples-to-apples engine number: the one
// unknown-U driver answering the same recorded trace through SubmitBatch in
// chunks of 128, over the centralized core and over the message-passing
// core. The workloads mirror the gated benchmark's regimes: static-package
// grants, half the requests growing the tree, and scarce permits on a path
// with the reject wave at half time. The deep row is deep-exhaust at the
// benchmark's own size: a path of 8 192 with M = 32 a node, where a request
// climbs some 58 hops and the containers under the protocol set the number.
// One iteration is one fresh engine replaying the whole trace; ns/req is
// the number to read.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	workloads := []engineTrace{
		{name: "events", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.EventOnlyMix(), steps: 1 << 16},
		{name: "grow", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.Mix{AddLeaf: 50, Event: 50}, steps: 1 << 13},
		{name: "exhaust", m: 1 << 13, w: 1 << 10, build: path(128), mix: workload.EventOnlyMix(), steps: 1 << 14},
		{name: "deep", m: 1 << 18, w: 1 << 12, build: path(8192), mix: workload.EventOnlyMix(), steps: 1 << 19},
	}
	for _, wl := range workloads {
		// Record the trace once, when the first selected sub-benchmark asks
		// for it: the generator reads the tree the engine mutates, and both
		// engines mutate it identically.
		var reqs []controller.Request
		trace := func(b *testing.B) []controller.Request {
			if len(reqs) == wl.steps {
				return reqs
			}
			rec := newEngine(b, false, wl)
			gen := workload.NewChurn(rec.tr, wl.mix, 5)
			for len(reqs) < wl.steps {
				req, ok := gen.Next()
				if !ok {
					b.Fatal("generator dried up")
				}
				if _, err := rec.d.Submit(req); err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, req)
			}
			return reqs
		}
		for _, engineName := range []string{"centralized", "distributed"} {
			b.Run(engineName+"/"+wl.name, func(b *testing.B) {
				reqs := trace(b)
				var out []controller.BatchResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := newEngine(b, engineName == "distributed", wl)
					b.StartTimer()
					for at := 0; at < len(reqs); at += 128 {
						out = e.d.SubmitBatch(reqs[at:min(at+128, len(reqs))], out[:0])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
			})
		}
	}
}
