package server

import (
	"io"
	"runtime"
	"strconv"
	"time"

	"dynctrl/internal/obs"
	"dynctrl/internal/wire"
)

// WriteMetrics renders the /metricsz document in the Prometheus text
// exposition format (version 0.0.4): every family carries HELP and TYPE
// lines, label values are escaped, and samples of a family are grouped —
// process-wide aggregates first, then the per-tenant families with
// {tenant="name"} labels. Each tenant is read once (tenant.scrapeView: the
// engine under its lock, then the wire tallies), and that one reading feeds
// the aggregate and the tenant's own lines, so within one document an
// aggregate is the sum of its tenants. Every field is documented in
// docs/OPERATIONS.md (enforced by internal/docscheck).
func (s *Server) WriteMetrics(w io.Writer) {
	var ops, grants, rejects, errs, violations, connsOpen, connsTotal int64
	var wave, wal bool
	views := make([]scrapeView, len(s.order))
	for i, name := range s.order {
		tn := s.tenants[name]
		v := tn.scrapeView()
		views[i] = v
		ops += v.wireOps
		grants += v.wireGrants
		rejects += v.wireRejects
		errs += v.wireErrs
		violations += int64(len(v.violations))
		connsOpen += v.connsOpen
		connsTotal += v.connsTotal
		wave = wave || v.waved
		wal = wal || tn.eng != nil
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
	d.Gauge("dynctrld_tenants", "Number of tenant namespaces served.", "", len(s.order))
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

	for i, name := range s.order {
		collectTenantMetrics(d, s.tenants[name], views[i])
	}
	d.Write(w)
}

// b2i renders a flag as the 0/1 gauge value.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// collectTenantMetrics appends one tenant's samples to the document's
// per-tenant families; ev is the scrape's one reading of the tenant.
func collectTenantMetrics(d *obs.PromDoc, tn *tenant, ev scrapeView) {
	base := `{tenant="` + obs.EscapeLabel(tn.name) + `"`
	l := base + "}"

	d.Gauge("dynctrld_tenant_m", "Tenant admission contract: maximum permits M.", l, tn.cfg.M)
	d.Gauge("dynctrld_tenant_w", "Tenant admission contract: guaranteed grants W.", l, tn.cfg.W)
	d.Gauge("dynctrld_tenant_topology_signature", "Signature of the tenant's initial tree, as sent in Welcome.", l, tn.topoSig)
	d.Gauge("dynctrld_tenant_incarnation", "Durability incarnation recovered at boot (0 without a WAL).", l, tn.incarnation)

	d.Gauge("dynctrld_tenant_wal_enabled", "1 when this tenant logs to a durability engine.", l, b2i(tn.eng != nil))
	if tn.eng != nil {
		es := tn.eng.StatsSnapshot()
		d.Counter("dynctrld_tenant_wal_appended_records", "WAL records appended this incarnation.", l, es.AppendedRecords)
		d.Gauge("dynctrld_tenant_wal_appended_index", "Index of the last appended WAL record.", l, es.AppendedIndex)
		d.Gauge("dynctrld_tenant_wal_durable_index", "Index of the last fsynced WAL record.", l, es.DurableIndex)
		d.Counter("dynctrld_tenant_wal_fsyncs_total", "Group-commit fsync waves completed.", l, es.Fsyncs)
		d.Counter("dynctrld_tenant_wal_bytes_written", "Bytes written to WAL segments this incarnation.", l, es.BytesWritten)
		d.Gauge("dynctrld_tenant_wal_segments", "WAL segment files in the tenant's directory.", l, es.Segments)
		d.Counter("dynctrld_tenant_wal_snapshots_total", "Snapshots written this incarnation.", l, es.Snapshots)
		d.Gauge("dynctrld_tenant_wal_last_snapshot_index", "WAL index covered by the latest snapshot.", l, es.LastSnapshotIndex)
		d.Gauge("dynctrld_tenant_wal_recovered_effects", "Effect records replayed during boot recovery.", l, tn.recoveredEffects)
		d.Gauge("dynctrld_tenant_wal_recovered_truncated_bytes", "Torn-tail bytes truncated during boot recovery.", l, tn.recoveredTrunc)
	}

	d.Counter("dynctrld_tenant_ops_total", "Requests answered over the wire for this tenant.", l, ev.wireOps)
	d.Counter("dynctrld_tenant_grants_total", "Grant verdicts written to the wire for this tenant.", l, ev.wireGrants)
	d.Counter("dynctrld_tenant_rejects_total", "Reject verdicts written to the wire for this tenant.", l, ev.wireRejects)
	d.Counter("dynctrld_tenant_errors_total", "Per-request errors written to the wire for this tenant.", l, ev.wireErrs)
	d.Gauge("dynctrld_tenant_reject_wave", "1 once this tenant's reject wave has fired.", l, b2i(ev.waved))
	d.Gauge("dynctrld_tenant_reject_wave_granted", "Grant count announced by this tenant's reject wave.", l, ev.waveGranted)

	d.Gauge("dynctrld_tenant_connections_open", "Currently bound wire connections.", l, ev.connsOpen)
	d.Counter("dynctrld_tenant_connections_total", "Wire connections ever bound to this tenant.", l, ev.connsTotal)
	d.Counter("dynctrld_tenant_idle_timeouts_total", "Connections reaped by the rolling idle deadline.", l, tn.idleTimeouts.Load())

	d.Counter("dynctrld_tenant_read_batches_total", "Read batches coalesced from connection sockets and run (a batch refused by a drained tenant or a dead WAL is not counted).", l, ev.runs)
	d.Counter("dynctrld_tenant_read_batch_requests_total", "Requests carried by those read batches (refused batches not counted).", l, ev.runReqs)
	d.Gauge("dynctrld_tenant_read_batch_max", "Largest read batch run (refused batches not counted).", l, ev.maxRun)
	d.Counter("dynctrld_tenant_pipeline_batches_total", "Runs executed under the tenant's lock, one per read batch.", l, ev.runs)
	d.Counter("dynctrld_tenant_pipeline_requests_total", "Requests those runs carried, as of the same instant as the ctl_ counters.", l, ev.runReqs)
	d.Gauge("dynctrld_tenant_pipeline_batch_max", "Largest run executed (requests).", l, ev.maxRun)

	d.Counter("dynctrld_tenant_moves_total", "Controller moves: edges crossed by packages, graceful deletions and wave sweeps (Section 3's move complexity).", l, ev.moves)
	d.Counter("dynctrld_tenant_ctl_grants_total", "Grants decided by the controller core.", l, ev.grants)
	d.Counter("dynctrld_tenant_ctl_rejects_total", "Rejects decided by the controller core.", l, ev.rejects)
	d.Counter("dynctrld_tenant_topo_changes_total", "Topology changes applied to the tenant's tree.", l, ev.topoChanges)
	d.Gauge("dynctrld_tenant_tree_nodes", "Current tree size (nodes).", l, ev.nodes)
	d.Gauge("dynctrld_tenant_tree_height", "Current tree height.", l, ev.height)
	d.Gauge("dynctrld_tenant_oracle_violations", "Oracle violations observed for this tenant (paranoid mode).", l, len(ev.violations))

	if tn.tracer != nil {
		td := tn.tracer.Snapshot()
		d.Counter("dynctrld_tenant_traces_total", "Batch traces recorded by the tenant's tracer.", l, td.Recorded)
		stageFam := d.Family("dynctrld_tenant_stage_seconds", "summary",
			"Server-side batch latency by stage (decode, queue, execute, wal, write, total), seconds.")
		for _, st := range td.Stages {
			stageFam.AddSummary(base+`,stage="`+st.Stage+`"`, st.LatencyStats)
		}
		d.Family("dynctrld_tenant_combine_seconds", "summary",
			"Time a run holds the tenant's lock: execute plus WAL append, seconds.").AddSummary(base, td.Hold)
		if tn.eng != nil {
			d.Family("dynctrld_tenant_fsync_seconds", "summary",
				"WAL group-commit fsync wave duration, seconds.").AddSummary(base, td.Fsync)
		}
	}
}

// WriteTraces renders the plain-text /tracez document: per tenant, the
// stage-latency digest plus the slowest-n and most-recent-n batch traces.
// A non-empty tenant filter restricts the report to that namespace.
func (s *Server) WriteTraces(w io.Writer, tenant string, n int) {
	for _, name := range s.order {
		if tenant != "" && name != tenant {
			continue
		}
		obs.WriteTracez(w, name, s.tenants[name].tracer, n, n)
	}
}

// TenantStageStats returns the named tenant's server-side stage-latency
// digest (decode, queue, execute, wal, write, total), or nil when the
// tenant is unknown or tracing is disabled.
func (s *Server) TenantStageStats(name string) []obs.StageStats {
	if tn := s.tenants[name]; tn != nil {
		return tn.tracer.Snapshot().Stages
	}
	return nil
}
