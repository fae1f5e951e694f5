package server

import (
	"io"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"dynctrl/internal/obs"
	"dynctrl/internal/wire"
)

// writeMetrics renders the /metricsz document in the Prometheus text
// exposition format (version 0.0.4): every family carries HELP and TYPE
// lines, label values are escaped, and samples of a family are grouped —
// process-wide aggregates first, then the per-tenant families with
// {tenant="name"} labels. The document is one Tenants reading: the
// aggregates are sums over the same views the tenants' own lines render, so
// within one document an aggregate is the sum of its tenants. Every field
// is documented in docs/OPERATIONS.md (enforced by internal/docscheck).
func (s *Server) writeMetrics(w io.Writer) {
	views := s.Tenants()
	var ops, grants, rejects, errs, violations, connsOpen, connsTotal int64
	var wave, wal bool
	for _, v := range views {
		ops += v.Ops
		grants += v.Grants
		rejects += v.Rejects
		errs += v.Errors
		violations += int64(len(v.Violations))
		connsOpen += v.ConnsOpen
		connsTotal += v.ConnsTotal
		wave = wave || v.CtlRejects > 0
		wal = wal || v.Durable
	}
	uptime, startTime := 0.0, 0.0
	if !s.started.IsZero() {
		// Uptime comes from the monotonic reading time.Since carries;
		// start time is the wall reading of the same instant.
		uptime = time.Since(s.started).Seconds()
		startTime = float64(s.started.UnixNano()) / 1e9
	}

	d := obs.NewPromDoc()
	d.Gauge("dynctrld_protocol_version", "Wire protocol version this daemon speaks.", "", wire.Version)
	d.Family("dynctrld_build_info", "gauge",
		"Build metadata; always 1, labeled with the Go runtime and wire protocol versions.").
		Add(`{go_version="`+obs.EscapeLabel(runtime.Version())+`",wire_version="`+strconv.Itoa(wire.Version)+`"}`, "1")
	d.Family("dynctrld_start_time_seconds", "gauge",
		"Unix time Start() bound the listeners, in seconds (0 before Start).").Add("", "%.3f", startTime)
	d.Family("dynctrld_uptime_seconds", "gauge",
		"Seconds since Start(), from the monotonic clock (0 before Start).").Add("", "%.3f", uptime)
	d.Gauge("dynctrld_tenants", "Number of tenant namespaces served.", "", len(views))
	d.Gauge("dynctrld_paranoid", "1 when every submitter is wrapped in the oracle invariant checkers.", "", b2i(s.cfg.Paranoid))
	d.Gauge("dynctrld_wal_enabled", "1 when at least one tenant runs with a durability engine.", "", b2i(wal))
	d.Counter("dynctrld_ops_total", "Requests answered over the wire, all tenants.", "", ops)
	d.Counter("dynctrld_grants_total", "Grant verdicts written to the wire, all tenants.", "", grants)
	d.Counter("dynctrld_rejects_total", "Reject verdicts written to the wire, all tenants.", "", rejects)
	d.Counter("dynctrld_errors_total", "Per-request errors written to the wire, all tenants.", "", errs)
	d.Gauge("dynctrld_reject_wave", "1 once any tenant's reject wave has fired.", "", b2i(wave))
	d.Gauge("dynctrld_oracle_violations", "Oracle violations observed so far, all tenants (paranoid mode).", "", violations)
	d.Gauge("dynctrld_connections_open", "Currently bound wire connections, all tenants.", "", connsOpen)
	d.Counter("dynctrld_connections_total", "Wire connections ever bound, all tenants.", "", connsTotal)
	heap := readHeap()
	d.Gauge("dynctrld_heap_live_bytes", "Heap bytes the last garbage collection marked live (runtime/metrics /gc/heap/live:bytes).", "", heap[0])
	d.Counter("dynctrld_gc_cycles_total", "Garbage collection cycles completed since process start (/gc/cycles/total:gc-cycles).", "", heap[1])
	d.Counter("dynctrld_heap_allocs_objects_total", "Heap objects allocated since process start (/gc/heap/allocs:objects).", "", heap[2])

	for _, v := range views {
		tenantMetrics(d, v)
	}
	d.Write(w)
}

// heapMetrics are the runtime/metrics names behind the process heap
// families, in the order readHeap returns them.
var heapMetrics = [...]string{"/gc/heap/live:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/allocs:objects"}

// readHeap reads the process heap's live bytes, completed GC cycles and
// allocated objects in one metrics.Read; a name the runtime does not know
// reads 0.
func readHeap() (v [len(heapMetrics)]uint64) {
	var samples [len(heapMetrics)]metrics.Sample
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			v[i] = s.Value.Uint64()
		}
	}
	return v
}

// b2i renders a flag as the 0/1 gauge value.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tenantMetrics appends one tenant's view to the document's per-tenant
// families.
func tenantMetrics(d *obs.PromDoc, v TenantView) {
	base := `{tenant="` + obs.EscapeLabel(v.Name) + `"`
	l := base + "}"

	d.Gauge("dynctrld_tenant_m", "Tenant admission contract: maximum permits M.", l, v.M)
	d.Gauge("dynctrld_tenant_w", "Tenant admission contract: guaranteed grants W.", l, v.W)
	d.Gauge("dynctrld_tenant_topology_signature", "Signature of the tenant's initial tree, as sent in Welcome.", l, v.TopologySignature)
	d.Gauge("dynctrld_tenant_incarnation", "Durability incarnation recovered at boot (0 without a WAL).", l, v.Incarnation)

	d.Gauge("dynctrld_tenant_wal_enabled", "1 when this tenant logs to a durability engine.", l, b2i(v.Durable))
	if v.Durable {
		d.Counter("dynctrld_tenant_wal_appended_records", "WAL records appended this incarnation.", l, v.WAL.AppendedRecords)
		d.Gauge("dynctrld_tenant_wal_appended_index", "Index of the last appended WAL record.", l, v.WAL.AppendedIndex)
		d.Gauge("dynctrld_tenant_wal_durable_index", "Index of the last fsynced WAL record.", l, v.WAL.DurableIndex)
		d.Counter("dynctrld_tenant_wal_fsyncs_total", "Group-commit fsync waves completed.", l, v.WAL.Fsyncs)
		d.Counter("dynctrld_tenant_wal_bytes_written", "Bytes written to WAL segments this incarnation.", l, v.WAL.BytesWritten)
		d.Gauge("dynctrld_tenant_wal_segments", "WAL segment files in the tenant's directory.", l, v.WAL.Segments)
		d.Counter("dynctrld_tenant_wal_snapshots_total", "Snapshots written this incarnation.", l, v.WAL.Snapshots)
		d.Gauge("dynctrld_tenant_wal_last_snapshot_index", "WAL index covered by the latest snapshot.", l, v.WAL.LastSnapshotIndex)
		d.Gauge("dynctrld_tenant_wal_recovered_effects", "Effect records replayed during boot recovery.", l, v.RecoveredEffects)
		d.Gauge("dynctrld_tenant_wal_recovered_truncated_bytes", "Torn-tail bytes truncated during boot recovery.", l, v.RecoveredTruncatedBytes)
	}

	d.Counter("dynctrld_tenant_ops_total", "Requests answered over the wire for this tenant.", l, v.Ops)
	d.Counter("dynctrld_tenant_grants_total", "Grant verdicts written to the wire for this tenant.", l, v.Grants)
	d.Counter("dynctrld_tenant_rejects_total", "Reject verdicts written to the wire for this tenant.", l, v.Rejects)
	d.Counter("dynctrld_tenant_errors_total", "Per-request errors written to the wire for this tenant.", l, v.Errors)
	// The controller rejects only inside its wave, and its grant total is
	// final from the first reject on.
	waved := b2i(v.CtlRejects > 0)
	d.Gauge("dynctrld_tenant_reject_wave", "1 once this tenant's reject wave has fired.", l, waved)
	d.Gauge("dynctrld_tenant_reject_wave_granted", "Grant count announced by this tenant's reject wave.", l, v.CtlGrants*int64(waved))

	d.Gauge("dynctrld_tenant_connections_open", "Currently bound wire connections.", l, v.ConnsOpen)
	d.Counter("dynctrld_tenant_connections_total", "Wire connections ever bound to this tenant.", l, v.ConnsTotal)
	d.Counter("dynctrld_tenant_idle_timeouts_total", "Connections reaped by the rolling idle deadline.", l, v.IdleTimeouts)

	d.Counter("dynctrld_tenant_read_batches_total", "Read batches coalesced from connection sockets and run (a batch refused by a drained tenant or a dead WAL is not counted).", l, v.Runs)
	d.Counter("dynctrld_tenant_read_batch_requests_total", "Requests carried by those read batches (refused batches not counted).", l, v.RunRequests)
	d.Gauge("dynctrld_tenant_read_batch_max", "Largest read batch run (refused batches not counted).", l, v.MaxRun)
	d.Counter("dynctrld_tenant_pipeline_batches_total", "Runs executed under the tenant's lock, one per read batch.", l, v.Runs)
	d.Counter("dynctrld_tenant_pipeline_requests_total", "Requests those runs carried, as of the same instant as the ctl_ counters.", l, v.RunRequests)
	d.Gauge("dynctrld_tenant_pipeline_batch_max", "Largest run executed (requests).", l, v.MaxRun)

	d.Counter("dynctrld_tenant_moves_total", "Controller moves: edges crossed by packages, graceful deletions and wave sweeps (Section 3's move complexity).", l, v.Moves)
	d.Counter("dynctrld_tenant_ctl_grants_total", "Grants decided by the controller core.", l, v.CtlGrants)
	d.Counter("dynctrld_tenant_ctl_rejects_total", "Rejects decided by the controller core.", l, v.CtlRejects)
	d.Counter("dynctrld_tenant_topo_changes_total", "Topology changes applied to the tenant's tree.", l, v.TopoChanges)
	d.Gauge("dynctrld_tenant_tree_nodes", "Current tree size (nodes).", l, v.Nodes)
	d.Gauge("dynctrld_tenant_tree_height", "Current tree height.", l, v.Height)
	d.Gauge("dynctrld_tenant_oracle_violations", "Oracle violations observed for this tenant (paranoid mode).", l, len(v.Violations))

	if v.Traced {
		td := v.Trace
		d.Counter("dynctrld_tenant_traces_total", "Batch traces recorded by the tenant's tracer.", l, td.Recorded)
		stageFam := d.Family("dynctrld_tenant_stage_seconds", "summary",
			"Server-side batch latency by stage (decode, queue, execute, wal, write, total), seconds.")
		for _, st := range td.Stages {
			stageFam.AddSummary(base+`,stage="`+st.Stage+`"`, st.LatencyStats)
		}
		d.Family("dynctrld_tenant_combine_seconds", "summary",
			"Time a run holds the tenant's lock: execute plus WAL append, seconds.").AddSummary(base, td.Hold)
		if v.Durable {
			d.Family("dynctrld_tenant_fsync_seconds", "summary",
				"WAL group-commit fsync wave duration, seconds.").AddSummary(base, td.Fsync)
		}
	}
}
