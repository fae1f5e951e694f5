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
// grants, half the requests growing the tree, and scarce permits on a deep
// path with the reject wave at half time. One iteration is one fresh engine
// replaying the whole trace; ns/req is the number to read.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	workloads := []engineTrace{
		{name: "events", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.EventOnlyMix(), steps: 1 << 16},
		{name: "grow", m: 1 << 20, w: 1 << 18, build: balanced(256, 1), mix: workload.Mix{AddLeaf: 50, Event: 50}, steps: 1 << 13},
		{name: "exhaust", m: 1 << 13, w: 1 << 10, build: path(128), mix: workload.EventOnlyMix(), steps: 1 << 14},
	}
	for _, wl := range workloads {
		// Record the trace once: the generator reads the tree the engine
		// mutates, and both engines mutate it identically.
		rec := newEngine(b, false, wl)
		gen := workload.NewChurn(rec.tr, wl.mix, 5)
		reqs := make([]controller.Request, 0, wl.steps)
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
		for _, engineName := range []string{"centralized", "distributed"} {
			b.Run(engineName+"/"+wl.name, func(b *testing.B) {
				var out []controller.BatchResult
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
