package server_test

// The hostile-network end-to-end harness: every scenario.HostileCatalog
// scenario is driven against a live (paranoid) daemon through an
// internal/faultnet proxy, and the run must prove at-most-once grant
// semantics and exact accounting no matter what the fault schedule did —
// client-observed verdicts bounded by server-answered verdicts, answered
// grants bounded by controller executions, executions bounded by M, grant
// serials never delivered twice, the daemon's own paranoid oracle clean,
// /metricsz reconciled, and (for the WAL scenarios) the on-disk history
// passing the cross-incarnation audit after a mid-run crash + recovery.

import (
	"bytes"
	"context"
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/faultnet"
	"dynctrl/internal/obs"
	"dynctrl/internal/oracle"
	"dynctrl/internal/persist"
	"dynctrl/internal/scenario"
	"dynctrl/internal/server"
	"dynctrl/internal/wire"
)

// tLogWriter adapts t.Log to the io.Writer a slog handler writes to.
type tLogWriter struct{ t *testing.T }

func (w tLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// warnLogger routes the daemon's warnings (recovery, durability, refused
// handshakes) to the test log through a slog text handler.
func warnLogger(t *testing.T) *slog.Logger {
	t.Helper()
	logger, err := obs.NewLogger(tLogWriter{t}, slog.LevelWarn, "text")
	if err != nil {
		t.Fatal(err)
	}
	return logger
}

func hostileConfig(t *testing.T, sc scenario.Hostile, walDir string) server.Config {
	cfg := server.Config{
		Addr:             "127.0.0.1:0",
		Tenants:          []server.TenantConfig{{Name: wire.DefaultTenant, Topology: sc.Topology, Seed: sc.Seed, M: sc.M, W: sc.W}},
		Paranoid:         true,
		IdleTimeout:      sc.IdleTimeout,
		HandshakeTimeout: sc.HandshakeTimeout,
		Logger:           warnLogger(t),
	}
	if sc.WAL {
		cfg.WALDir = walDir
	}
	return cfg
}

func bootHostileServer(t *testing.T, sc scenario.Hostile, walDir string) *server.Server {
	t.Helper()
	s, err := server.New(hostileConfig(t, sc, walDir))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	return s
}

// hostileRun accumulates one run's client-side observations.
type hostileRun struct {
	client     oracle.WireTally
	serials    []int64
	unanswered [][]controller.Request
	dialFaults int
}

// driveChunked plays reqs through cl in chunk-sized runs, folding every
// answered verdict into tally (and granted serials into serials), and
// returns the unanswered remainder — everything from the first failed run
// on. A failed run's requests may or may not have executed server-side;
// the client never retries them itself (at-most-once), the caller decides
// whether to model a retrying application.
func driveChunked(cl *client.Client, reqs []controller.Request, chunk int,
	tally *oracle.WireTally, serials *[]int64) []controller.Request {
	for off := 0; off < len(reqs); off += chunk {
		end := off + chunk
		if end > len(reqs) {
			end = len(reqs)
		}
		out, err := cl.SubmitMany(reqs[off:end], nil)
		if err != nil {
			return reqs[off:]
		}
		for _, br := range out {
			tally.Ops++
			switch {
			case br.Err != nil:
				tally.Errors++
			case br.Grant.Outcome == controller.Granted:
				tally.Granted++
				if br.Grant.Serial != 0 {
					*serials = append(*serials, br.Grant.Serial)
				}
			default:
				tally.Rejected++
			}
		}
	}
	return nil
}

// driveFaulted dials one single-connection client per scenario connection
// through the proxy — sequentially, so connection ordinals equal dial
// order and the fault schedule is reproducible — then drives every
// connection's trace slice concurrently in chunk-sized runs.
func driveFaulted(t *testing.T, sc scenario.Hostile, p *faultnet.Proxy,
	slices [][]controller.Request) hostileRun {
	t.Helper()
	run := hostileRun{unanswered: make([][]controller.Request, sc.Conns)}
	clients := make([]*client.Client, sc.Conns)
	for i := 0; i < sc.Conns; i++ {
		cl, err := client.Dial(p.Addr(), client.Options{
			Conns:        1,
			WriteTimeout: sc.WriteTimeout,
			DialTimeout:  30 * time.Second,
		})
		if err != nil {
			t.Logf("conn %d: dial faulted (expected under this schedule): %v", i, err)
			run.dialFaults++
			run.unanswered[i] = slices[i]
		} else {
			clients[i] = cl
			t.Cleanup(func() { cl.Close() })
		}
		// The proxy must have registered this connection before the next
		// dial, or ordinals would race.
		deadline := time.Now().Add(10 * time.Second)
		for p.Conns() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("proxy never saw conn %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	type connResult struct {
		tally   oracle.WireTally
		serials []int64
		rest    []controller.Request
	}
	results := make([]connResult, sc.Conns)
	var wg sync.WaitGroup
	for i, cl := range clients {
		if cl == nil {
			continue
		}
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			r := &results[i]
			r.rest = driveChunked(cl, slices[i], sc.Chunk, &r.tally, &r.serials)
		}(i, cl)
	}
	wg.Wait()
	for i := range results {
		run.client.Ops += results[i].tally.Ops
		run.client.Granted += results[i].tally.Granted
		run.client.Rejected += results[i].tally.Rejected
		run.client.Errors += results[i].tally.Errors
		run.serials = append(run.serials, results[i].serials...)
		if len(results[i].rest) > 0 {
			run.unanswered[i] = results[i].rest
		}
	}
	return run
}

// runHostile executes one scenario end to end and fails the test on any
// broken invariant.
func runHostile(t *testing.T, sc scenario.Hostile, walDir string) {
	t.Helper()
	_, slices, err := sc.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}

	s := bootHostileServer(t, sc, walDir)
	p, err := faultnet.Start(faultnet.Config{
		Upstream: s.Addr(), Seed: sc.Seed, Rules: sc.Faults, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("faultnet.Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	run := driveFaulted(t, sc, p, slices)
	if run.dialFaults != sc.ExpectDialFaults {
		t.Fatalf("%d dials faulted, scenario expects %d", run.dialFaults, sc.ExpectDialFaults)
	}
	t.Logf("faulted phase: %+v, fault events:\n%s", run.client, faultnet.FormatEvents(p.Events()))

	// The server's side of the ledger, summed across incarnations when the
	// scenario crashes + recovers the daemon mid-run.
	var serverTally oracle.WireTally
	var executed int64
	final := s
	if sc.WAL {
		s.CrashForTests()
		v := s.Tenants()[0]
		serverTally = oracle.WireTally{Ops: v.Ops, Granted: v.Grants, Rejected: v.Rejects, Errors: v.Errors}
		executed = v.CtlGrants

		final = bootHostileServer(t, sc, walDir)
		boot := final.Tenants()[0]
		if boot.Incarnation != 2 {
			t.Fatalf("recovery boot incarnation %d, want 2", boot.Incarnation)
		}
		// The recovered incarnation starts with replayed controller state
		// but fresh wire tallies; only its deltas are added below.
		serverTally.Ops -= boot.Ops // normally zero; stay exact regardless
		serverTally.Granted -= boot.Grants
		serverTally.Rejected -= boot.Rejects
		serverTally.Errors -= boot.Errors
		executed -= boot.CtlGrants
	}

	if sc.Recover {
		// The retrying-application model: every connection's unanswered
		// remainder is resubmitted over a clean network. Requests whose
		// first attempt executed server-side may burn permits again — the
		// containment chain tolerates that; double-*delivery* it does not.
		for i, rest := range run.unanswered {
			if len(rest) == 0 {
				continue
			}
			cl, err := client.Dial(final.Addr(), client.Options{Conns: 1})
			if err != nil {
				t.Fatalf("conn %d: recovery dial: %v", i, err)
			}
			left := driveChunked(cl, rest, sc.Chunk, &run.client, &run.serials)
			cl.Close()
			if left != nil {
				t.Fatalf("conn %d: resubmission failed over a clean network (%d requests left)", i, len(left))
			}
		}
	}

	end := final.Tenants()[0]
	serverTally.Ops += end.Ops
	serverTally.Granted += end.Grants
	serverTally.Rejected += end.Rejects
	serverTally.Errors += end.Errors
	executed += end.CtlGrants

	report := oracle.AtMostOnceReport{
		Tenant:   wire.DefaultTenant,
		M:        sc.M,
		Client:   run.client,
		Server:   serverTally,
		Executed: executed,
	}
	violations := oracle.CheckAtMostOnce(report)
	violations = append(violations, oracle.CheckSerialsUnique(run.serials)...)
	if len(violations) != 0 {
		t.Fatalf("at-most-once violations: %v (report %+v)", violations, report)
	}
	if pv := end.Violations; len(pv) != 0 {
		t.Fatalf("paranoid oracle violations: %v", pv)
	}

	// The final incarnation's /metricsz must agree with its accounting.
	reconcileMetrics(t, final)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := final.Shutdown(ctx); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}

	if sc.WAL {
		sums, walViolations, err := persist.VerifyDir(filepath.Join(walDir, wire.DefaultTenant), sc.M)
		if err != nil {
			t.Fatalf("VerifyDir: %v", err)
		}
		if len(walViolations) != 0 {
			t.Fatalf("cross-incarnation violations: %v", walViolations)
		}
		if len(sums) != 2 {
			t.Fatalf("%d incarnations in the WAL history, want 2", len(sums))
		}
	}
}

// reconcileMetrics parses the daemon's /metricsz text and requires the
// default tenant's wire accounting and oracle-violation count to match
// the in-process view exactly.
func reconcileMetrics(t *testing.T, s *server.Server) {
	t.Helper()
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	fields := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			fields[name] = v
		}
	}
	v := s.Tenants()[0]
	l := `{tenant="` + wire.DefaultTenant + `"}`
	for _, c := range []struct {
		name string
		want int64
	}{
		{"dynctrld_tenant_ops_total" + l, v.Ops},
		{"dynctrld_tenant_grants_total" + l, v.Grants},
		{"dynctrld_tenant_rejects_total" + l, v.Rejects},
		{"dynctrld_tenant_errors_total" + l, v.Errors},
		{"dynctrld_tenant_oracle_violations" + l, 0},
	} {
		got, ok := fields[c.name]
		if !ok {
			t.Fatalf("metricsz lacks %s", c.name)
		}
		if got != c.want {
			t.Fatalf("metricsz %s = %d, in-process view %d", c.name, got, c.want)
		}
	}
}

// TestHostileScenarioSweep runs the whole hostile-network catalog.
func TestHostileScenarioSweep(t *testing.T) {
	for _, sc := range scenario.HostileCatalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runHostile(t, sc, t.TempDir())
		})
	}
}

// TestHostileFaultScheduleReproducible runs one scenario's faulted phase
// twice — fresh server, fresh proxy, same (scenario, seed) — and
// requires byte-identical fault event logs. The schedule is dup-results',
// the one with a probabilistic rule (the strongest determinism claim), at
// the same coordinates and probabilities but firing short stalls instead
// of duplicates. The proxy's contract is "same frame sequence per
// connection, same log", and a duplicated server frame breaks the premise:
// the client tears the connection down on it, and whether one more Results
// frame crosses the proxy first is a race. With seed 17 conn 1's Welcome
// (frame 0) and its frame 1 both fire, so the log gained or lost that
// second event from run to run. A stalled frame arrives intact, every
// connection carries its whole trace in both runs, and the logs must agree
// on every coordinate. The sweep above still runs the duplicates.
func TestHostileFaultScheduleReproducible(t *testing.T) {
	sc, err := scenario.HostileByName("dup-results")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Faults { // a fresh catalog copy: nothing shared is edited
		sc.Faults[i].Kind, sc.Faults[i].Delay = faultnet.Stall, 100*time.Microsecond
	}
	logs := make([]string, 2)
	for i := range logs {
		_, slices, err := sc.Trace()
		if err != nil {
			t.Fatalf("Trace: %v", err)
		}
		s := bootHostileServer(t, sc, "")
		p, err := faultnet.Start(faultnet.Config{
			Upstream: s.Addr(), Seed: sc.Seed, Rules: sc.Faults, Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("faultnet.Start: %v", err)
		}
		driveFaulted(t, sc, p, slices)
		logs[i] = faultnet.FormatEvents(p.Events())
		p.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Shutdown(ctx) //nolint:errcheck
		cancel()
	}
	if logs[0] == "" {
		t.Fatal("no fault events fired; the schedule did nothing")
	}
	if logs[0] != logs[1] {
		t.Fatalf("fault event logs differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			logs[0], logs[1])
	}
}
