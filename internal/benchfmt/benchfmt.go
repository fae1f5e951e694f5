// Package benchfmt is the format of cmd/loadgen's JSON summary: what one
// wire-protocol load run observed (throughput, open-loop latency, the
// daemon's per-stage quantiles), as CI's three loadgen smoke jobs upload
// it. The repository's performance numbers are not in this format; they
// are bench/'s (contract in BENCHMARK.json).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion identifies the Report layout. Bump it when changing the
// measurement fields. Schema 2 added the scenario/scheduler labels;
// schema 3 added the transport dimension when the service boundary
// landed; schema 4 added the durability dimension (none | wal+snap) with
// the write-ahead-log engine; schema 5 added the open-loop latency block
// (coordinated-omission-safe p50/p99/p999); schema 6 added the
// server_latency block (server-side per-stage quantiles scraped from
// /metricsz); schema 7 dropped the fields only the deleted in-process
// harness filled (scheduler, allocs_per_op, bytes_per_op, messages_per_op,
// pipeline_speedup, messages_per_change).
const SchemaVersion = 7

// TransportTCP is the transport of every measurement: the dynctrld wire
// protocol over TCP.
const TransportTCP = "tcp"

// Durability modes a measurement can run under.
const (
	// DurabilityNone keeps all admission state in memory.
	DurabilityNone = "none"
	// DurabilityWALSnap is the durability engine: WAL plus periodic
	// snapshots.
	DurabilityWALSnap = "wal+snap"
)

// Latency is the schema-5 open-loop latency block: quantiles of the
// per-request latency measured from each request's *scheduled* arrival
// time (not its actual send time), so queueing delay behind a slow server
// is charged to the server — the coordinated-omission-safe convention.
// All values are nanoseconds from an HDR-style log-linear histogram
// (internal/hdr, <=1.6% relative quantization error).
type Latency struct {
	// Unit is always "ns".
	Unit string `json:"unit"`
	// P50, P99 and P999 are the headline quantiles.
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	// Max and Mean are exact (not quantized).
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// Count is the number of completed requests behind the quantiles.
	Count int64 `json:"count"`
	// TargetRate is the arrival rate the open-loop generator scheduled
	// (requests/second); compare against the measurement's OpsPerSec to
	// see whether the server kept up.
	TargetRate float64 `json:"target_rate"`
	// Arrival is the arrival process (workload.ArrivalPoisson or
	// workload.ArrivalFixed).
	Arrival string `json:"arrival"`
}

// StageLatency is one server-side stage's latency digest within a
// ServerLatency block. Values are nanoseconds.
type StageLatency struct {
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Count int64   `json:"count"`
}

// ServerLatency is the schema-6 server-side latency block: per-stage
// quantiles of the daemon's own batch-trace histograms (decode, queue,
// execute, wal, write, total), scraped from /metricsz after the run.
// Reconciling these against the client-observed Latency block separates
// server time from network/client queueing: the non-total stage p99s must
// sum to no more than the client-observed p99.
type ServerLatency struct {
	// Unit is always "ns".
	Unit string `json:"unit"`
	// Stages maps stage name to its digest.
	Stages map[string]StageLatency `json:"stages"`
}

// Measurement is one measured run. Scenario, Transport and Durability say
// what ran where. Latency is only set by open-loop runs; ServerLatency
// only by runs that scraped the daemon's stage histograms; a closed-loop
// run without -metrics leaves both nil.
type Measurement struct {
	Scenario      string         `json:"scenario"`
	Transport     string         `json:"transport"`
	Durability    string         `json:"durability"`
	NsPerOp       float64        `json:"ns_per_op"`
	OpsPerSec     float64        `json:"ops_per_sec"`
	Latency       *Latency       `json:"latency,omitempty"`
	ServerLatency *ServerLatency `json:"server_latency,omitempty"`
}

// Report is the summary document.
type Report struct {
	Label     string                 `json:"label"`
	Schema    int                    `json:"schema"`
	GoVersion string                 `json:"go_version"`
	GOOS      string                 `json:"goos"`
	GOARCH    string                 `json:"goarch"`
	Workload  map[string]any         `json:"workload"`
	Results   map[string]Measurement `json:"results"`
}

// Bytes marshals the report as indented JSON with a trailing newline.
func (r Report) Bytes() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal report: %w", err)
	}
	return append(buf, '\n'), nil
}

// WriteFile marshals the report to path (and returns the bytes written).
func (r Report) WriteFile(path string) ([]byte, error) {
	buf, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	return buf, nil
}

// ReadFile loads a report from path.
func ReadFile(path string) (Report, error) {
	var r Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("read report: %w", err)
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}
