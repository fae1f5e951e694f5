package bench

import (
	"fmt"
	"path/filepath"
)

// tracedRequests is where the traced daemon run and its twin stop.
const tracedRequests = 1 << 16

// obsPairs is how many (default, -trace-ring -1) daemon pairs the traced
// run interleaves for obs.overhead_ratio.
const obsPairs = 3

// Traced is one traced run: the ladder over the workload's input, daemon
// runs for the numbers only a live daemon has, and the spans of all of it.
type Traced struct {
	Values    *Values
	TraceFile string
	Checks
}

// RunTraced produces every per-layer metric for the workload. Metrics of a
// layer the workload never enters (persist.* and the WAL stages without a
// WAL, tree.add_leaf without additions, the open-loop generator's numbers
// in a closed loop) read 0. Request counts, not durations, size this run.
func (e *Env) RunTraced(in *Input) (*Traced, error) {
	// The rungs and the daemon runs share the end-to-end run's processors,
	// or the deltas between them would compare two machines.
	if err := Confine(in.W.OpenRate == 0); err != nil {
		return nil, err
	}
	w := in.W
	t := &Traced{Values: newValues()}
	v := t.Values
	l := newLadder(in, v)

	// The ladder, one rung at a time. dist goes first: the rungs above it
	// reuse its verdicts.
	if err := l.rungDist(); err != nil {
		return nil, err
	}
	if err := l.rungController(); err != nil {
		return nil, err
	}
	l.rungWire()
	if err := l.rungTree(); err != nil {
		return nil, err
	}
	if err := l.rungPipeline(); err != nil {
		return nil, err
	}
	if err := l.rungPersist(e.Scratch); err != nil {
		return nil, err
	}
	if err := l.rungClient(); err != nil {
		return nil, err
	}
	t.absorb(l.Checks)

	// Daemon runs. Interleaved pairs with the daemon's own tracing on and
	// off; the first default run also stands for the untraced end-to-end
	// numbers the deltas and the server.* scrape need.
	var plain *Iteration
	var ratios, recov []float64
	for i := 0; i < obsPairs; i++ {
		pair := [2]*Iteration{}
		order := [2]int{i % 2, 1 - i%2} // alternate which side goes first
		for _, side := range order {
			// Every default run's restart is timed.
			opts := IterOpts{Restart: side == 0}
			if side == 1 {
				opts.Flags = []string{"-trace-ring", "-1"}
			}
			it, err := e.RunIteration(in, opts)
			if err != nil {
				return nil, err
			}
			t.absorb(it.Checks)
			pair[side] = it
			recov = append(recov, it.RecoveryS...)
		}
		if plain == nil {
			plain = pair[0]
		}
		ratios = append(ratios, pair[0].nsPerOp()/pair[1].nsPerOp())
	}
	v.set("obs.overhead_ratio", Median(ratios), len(ratios))

	// The traced daemon run: the oracle re-checks every request inside the
	// daemon, and every client call is a span. The oracle validates the
	// whole tree every sixteenth request, which on the deep and the grown
	// trees costs twenty to a hundred times the request itself, so this run
	// stops after tracedRequests; its untraced twin stops at the same place.
	short := IterOpts{MaxRequests: tracedRequests}
	twin, err := e.RunIteration(in, short)
	if err != nil {
		return nil, err
	}
	t.absorb(twin.Checks)
	short.Flags, short.Rec = []string{"-paranoid"}, l.rec
	paranoid, err := e.RunIteration(in, short)
	if err != nil {
		return nil, err
	}
	t.absorb(paranoid.Checks)
	v.set("bench.trace_overhead_ratio", paranoid.nsPerOp()/twin.nsPerOp(), 1)
	plainNS := plain.nsPerOp()

	walDelta := 0.0
	if w.WAL {
		twin, err := e.RunIteration(in, IterOpts{NoWAL: true})
		if err != nil {
			return nil, err
		}
		t.absorb(twin.Checks)
		walDelta = plainNS - twin.nsPerOp()
	}
	v.set("delta.wal_ns_per_req", walDelta, 1)
	v.set("delta.pipeline_over_dist_ns_per_req", l.pipeNS-l.distNS, 1)
	v.set("delta.daemon_over_pipeline_ns_per_req", plainNS-l.pipeNS, 1)

	v.set("bench.recovery_s", Median(recov), len(recov))
	serverMetrics(v, plain.Scrape)
	lat := sortedCopy(plain.Lat)
	v.set("bench.lat_p50_us", us(Percentile(lat, 50)), len(lat))
	v.set("bench.lat_p99_us", us(Percentile(lat, 99)), len(lat))
	openMetrics(v, in, plain.Open)

	t.TraceFile = filepath.Join(e.Scratch, "trace-"+w.Name+".json")
	if err := l.rec.WriteJSON(t.TraceFile, w.Name, in.Seed); err != nil {
		return nil, fmt.Errorf("write %s: %v", t.TraceFile, err)
	}
	return t, nil
}

// openMetrics reports the open-loop generator's own numbers: the latency it
// measures over a submitter that answers at once, how late it sent, and the
// service time from the actual send. A closed loop has no generator: 0.
func openMetrics(v *Values, in *Input, o *OpenTimings) {
	var floor, lag, svc []int64
	if o != nil {
		floor, lag, svc = sortedCopy(openFloor(in)), sortedCopy(o.Lag), sortedCopy(o.Svc)
	}
	for _, m := range []struct {
		name   string
		sorted []int64
		p      float64
	}{
		{"bench.open_floor_p50_us", floor, 50}, {"bench.open_floor_p99_us", floor, 99},
		{"bench.dispatch_lag_p50_us", lag, 50}, {"bench.dispatch_lag_p99_us", lag, 99},
		{"bench.open_svc_p50_us", svc, 50},
	} {
		if len(m.sorted) == 0 {
			v.set(m.name, 0, 0)
			continue
		}
		v.set(m.name, us(Percentile(m.sorted, m.p)), len(m.sorted))
	}
}

// serverMetrics reads the daemon's own families; nothing here is new
// instrumentation.
func serverMetrics(v *Values, s Scraped) {
	for _, stage := range []string{"decode", "queue", "execute", "wal", "write", "total"} {
		v.set("server.stage_"+stage+"_p50_us", s.quantileUS("dynctrld_tenant_stage_seconds", stage, "p50"),
			int(s[`dynctrld_tenant_stage_seconds_count{tenant="default",stage="`+stage+`"}`]))
	}
	v.set("server.stage_total_p99_us", s.quantileUS("dynctrld_tenant_stage_seconds", "total", "p99"),
		int(s[`dynctrld_tenant_stage_seconds_count{tenant="default",stage="total"}`]))
	v.set("server.combine_p50_us", s.quantileUS("dynctrld_tenant_combine_seconds", "", "p50"),
		int(s.tenant("dynctrld_tenant_combine_seconds_count")))
	fsyncs := s.tenant("dynctrld_tenant_wal_fsyncs_total")
	v.set("server.fsync_p50_us", s.quantileUS("dynctrld_tenant_fsync_seconds", "", "p50"), int(fsyncs))
	v.set("server.fsync_p99_us", s.quantileUS("dynctrld_tenant_fsync_seconds", "", "p99"), int(fsyncs))
	ops := s.tenant("dynctrld_tenant_ops_total")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v.set("server.reqs_per_read_batch",
		ratio(s.tenant("dynctrld_tenant_read_batch_requests_total"), s.tenant("dynctrld_tenant_read_batches_total")), 0)
	v.set("server.reqs_per_pipeline_batch",
		ratio(s.tenant("dynctrld_tenant_pipeline_requests_total"), s.tenant("dynctrld_tenant_pipeline_batches_total")), 0)
	v.set("server.reqs_per_fsync", ratio(s.tenant("dynctrld_tenant_wal_appended_records"), fsyncs), 0)
	v.set("server.wal_bytes_per_req",
		ratio(s.tenant("dynctrld_tenant_wal_bytes_written"), s.tenant("dynctrld_tenant_wal_appended_records")), 0)
	v.set("server.msgs_per_req", ratio(s.tenant("dynctrld_tenant_transport_messages_total")+
		s.tenant("dynctrld_tenant_control_messages_total"), ops), 0)
	v.set("server.tree_nodes", s.tenant("dynctrld_tenant_tree_nodes"), 0)
	v.set("server.tree_height", s.tenant("dynctrld_tenant_tree_height"), 0)
}
