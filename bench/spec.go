package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Metric is one named number: its unit and which way is better.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// EndToEnd lists what a client of the daemon sees, measured with every
// span in this package off. Bound is the share of the parent commit's
// median by which the metric may get worse before a change is rejected.
// README.md says what each one times and why the latencies, recovery_s and
// failed_share of the issue's table are not here.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

func lower(unit string, names ...string) []Metric {
	out := make([]Metric, len(names))
	for i, n := range names {
		out[i] = Metric{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []Metric {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(groups ...[]Metric) []Metric {
	var out []Metric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// PerLayer lists the ladder: one group per module, each metric a span or a
// count taken around that module's public calls. Exact lists the ones that
// must repeat bit for bit at a fixed seed.
var PerLayer = concat(
	lower("ns", "wire.encode_submit_ns_per_req", "wire.decode_submit_ns_per_req",
		"wire.encode_results_ns_per_req", "wire.decode_results_ns_per_req"),
	lower("B", "wire.bytes_per_req"),
	lower("count", "wire.allocs_per_req"),
	lower("ns", "tree.add_leaf_ns_per_op", "tree.path_to_root_ns_per_op"),
	lower("ns", "controller.submit_ns_per_req"),
	lower("count", "controller.moves_per_req"),
	lower("ns", "dist.submit_batch_ns_per_req"),
	lower("count", "dist.msgs_per_req", "dist.msgs_per_change", "dist.allocs_per_req",
		"dist.iterations", "dist.waste_permits"),
	lower("ns", "pipeline.submit_many_ns_per_req", "pipeline.handoff_self_ns_per_req"),
	higher("count", "pipeline.reqs_per_cycle"),
	lower("ns", "persist.append_ns_per_req"),
	lower("us", "persist.wait_durable_p50_us", "persist.wait_durable_p99_us"),
	higher("count", "persist.reqs_per_fsync"),
	lower("B", "persist.wal_bytes_per_req"),
	lower("ns", "persist.recover_ns_per_effect"),
	lower("us", "client.stub_rtt_p50_us"),
	lower("ns", "client.stub_ns_per_req"),
	lower("count", "client.allocs_per_req"),
	lower("us", "server.stage_decode_p50_us", "server.stage_queue_p50_us", "server.stage_execute_p50_us",
		"server.stage_wal_p50_us", "server.stage_write_p50_us", "server.stage_total_p50_us",
		"server.stage_total_p99_us", "server.combine_p50_us", "server.fsync_p50_us", "server.fsync_p99_us"),
	higher("count", "server.reqs_per_read_batch", "server.reqs_per_pipeline_batch", "server.reqs_per_fsync"),
	lower("B", "server.wal_bytes_per_req"),
	lower("count", "server.msgs_per_req", "server.tree_nodes", "server.tree_height"),
	lower("ratio", "obs.overhead_ratio"),
	lower("ns", "delta.pipeline_over_dist_ns_per_req", "delta.daemon_over_pipeline_ns_per_req", "delta.wal_ns_per_req"),
	lower("us", "bench.lat_p50_us", "bench.lat_p99_us", "bench.open_floor_p50_us", "bench.open_floor_p99_us",
		"bench.dispatch_lag_p50_us", "bench.dispatch_lag_p99_us", "bench.open_svc_p50_us"),
	lower("s", "bench.recovery_s"),
	lower("ratio", "bench.trace_overhead_ratio"),
)

// Exact names the per-layer metrics that come from a single goroutine over
// a seeded sim scheduler, or from byte counts: two runs at one seed must
// agree on them to the last digit.
var Exact = map[string]bool{
	"wire.bytes_per_req":       true,
	"controller.moves_per_req": true,
	"dist.msgs_per_req":        true,
	"dist.msgs_per_change":     true,
	"dist.iterations":          true,
	"dist.waste_permits":       true,
}

// Spec is what the runner reads of BENCHMARK.json.
type Spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from the checkout's root and refuses one
// that names other workloads or metrics than this package emits: the file
// is the contract, and the runner must not drift from it.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	ws := Gated()
	if len(s.Workloads) != len(ws) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the runner gates %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the runner's is %q (or their reasons differ)",
				i, s.Workloads[i].Name, w.Name)
		}
	}
	if err := sameMetrics("end_to_end", s.EndToEnd, EndToEnd); err != nil {
		return nil, err
	}
	if err := sameMetrics("per_layer", s.PerLayer, PerLayer); err != nil {
		return nil, err
	}
	return &s, nil
}

func sameMetrics(list string, file, code []Metric) error {
	if len(file) != len(code) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, the runner emits %d", list, len(file), len(code))
	}
	for i := range code {
		if file[i] != code[i] {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %+v, the runner emits %+v", list, i, file[i], code[i])
		}
	}
	return nil
}

// Values are the measured numbers of one run, by metric name, with the
// number of samples behind each timing.
type Values struct {
	V map[string]float64
	N map[string]int
}

func newValues() *Values { return &Values{V: map[string]float64{}, N: map[string]int{}} }

func (v *Values) set(name string, value float64, samples int) {
	v.V[name] = value
	v.N[name] = samples
}

// Checks is what every kind of run carries about correctness: how many
// requests it sent, how many of them got no legal verdict (plus one for
// every failed check), and the failed checks spelled out.
type Checks struct {
	Attempted int64
	Failed    int64
	Problems  []string
}

func (c *Checks) problem(format string, args ...any) {
	c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	c.Failed++
}

func (c *Checks) absorb(o Checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Problems = append(c.Problems, o.Problems...)
}

// Info is a number a run prints beside its metrics without reporting it to
// the driver: it has no bound.
type Info struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Result is the object the contract wants as the last line of output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported number with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// NewResult reports exactly the listed metrics; a metric the run did not
// produce is an error, never a silent gap.
func NewResult(list []Metric, v *Values, c Checks) (*Result, error) {
	r := &Result{Correct: c.Failed == 0, Attempted: c.Attempted, Failed: c.Failed,
		Metrics: make(map[string]MetricValue, len(list))}
	for _, m := range list {
		val, ok := v.V[m.Name]
		if !ok {
			return nil, fmt.Errorf("the run produced no %s", m.Name)
		}
		r.Metrics[m.Name] = MetricValue{Value: val, Unit: m.Unit}
	}
	return r, nil
}
