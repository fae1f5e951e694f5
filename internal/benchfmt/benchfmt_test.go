package benchfmt

import (
	"path/filepath"
	"reflect"
	"testing"
)

func sample() Report {
	return Report{
		Label:     "test",
		Schema:    SchemaVersion,
		GoVersion: "go1.24",
		GOOS:      "linux",
		GOARCH:    "amd64",
		Workload: map[string]any{
			"conns": 8.0,
		},
		Results: map[string]Measurement{
			"closed": {
				Scenario: "w", Transport: TransportTCP, Durability: DurabilityWALSnap,
				NsPerOp: 400, OpsPerSec: 2.5e6,
			},
			"openloop": {
				Scenario: "o", Transport: TransportTCP, Durability: DurabilityNone,
				NsPerOp: 50_000, OpsPerSec: 20_000,
				Latency: &Latency{
					Unit: "ns", P50: 40_000, P99: 900_000, P999: 2_000_000,
					Max: 3_000_000, Mean: 55_000,
					Count: 20_000, TargetRate: 20_000, Arrival: "poisson",
				},
				ServerLatency: &ServerLatency{
					Unit: "ns",
					Stages: map[string]StageLatency{
						"execute": {P50: 5_000, P99: 60_000, P999: 90_000, Count: 400},
						"total":   {P50: 9_000, P99: 150_000, P999: 300_000, Count: 400},
					},
				},
			},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LOADGEN_test.json")
	in := sample()
	if _, err := in.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}
