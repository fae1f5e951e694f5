package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestPromDocRender pins the exposition rules the renderer owns: families
// come out in first-use order with HELP and TYPE, a family's samples stay
// contiguous whoever contributed them, and a summary renders quantiles
// plus suffixed _sum/_count samples.
func TestPromDocRender(t *testing.T) {
	d := NewPromDoc()
	d.Counter("ops_total", "Ops.", `{tenant="a"}`, int64(3))
	d.Gauge("up", "Up.", "", 1)
	d.Counter("ops_total", "ignored on reuse", `{tenant="b"}`, uint64(4))
	d.Family("lat_seconds", "summary", "Latency.").AddSummary(`{tenant="a"`, LatencyStats{
		Count: 2, Sum: 3 * time.Millisecond,
		P50: time.Millisecond, P99: 2 * time.Millisecond, P999: 2 * time.Millisecond,
	})
	d.Family("load", "gauge", "Load.").Add("", "%.3f", 0.5)

	var buf bytes.Buffer
	d.Write(&buf)
	const want = `# HELP ops_total Ops.
# TYPE ops_total counter
ops_total{tenant="a"} 3
ops_total{tenant="b"} 4
# HELP up Up.
# TYPE up gauge
up 1
# HELP lat_seconds Latency.
# TYPE lat_seconds summary
lat_seconds{tenant="a",quantile="p50"} 0.001000000
lat_seconds{tenant="a",quantile="p99"} 0.002000000
lat_seconds{tenant="a",quantile="p999"} 0.002000000
lat_seconds_sum{tenant="a"} 0.003000000
lat_seconds_count{tenant="a"} 2
# HELP load Load.
# TYPE load gauge
load 0.500
`
	if got := buf.String(); got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
}
