package workload_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynctrl/internal/scenario"
	"dynctrl/internal/sim"
	"dynctrl/internal/workload"
)

// These tests pin the catalog this package declares by running it through
// the runner of package scenario. They are an external test package, so
// only the test binary links the simulator: workload's own import closure,
// and with it the daemon's, stays free of it.

var updateGolden = flag.Bool("update", false, "rewrite the golden trace corpus")

// goldenSeed pins the seed of the committed golden-trace corpus.
const goldenSeed = 1

// runScenario runs sc under the named scheduler through scenario.Sweep.
func runScenario(sc workload.Scenario, scheduler string, seed int64, long bool) (scenario.Result, error) {
	res, err := scenario.Sweep([]workload.Scenario{sc}, []string{scheduler}, seed, long)
	if err != nil {
		return scenario.Result{}, err
	}
	return res[0], nil
}

// TestScenarioCatalogAcrossSchedulers is the CI scenario matrix: every
// catalog scenario runs under every adversarial scheduler with the oracle
// invariant suite always on. A violation anywhere fails with the full
// reproduction recipe (scenario, scheduler, seed).
func TestScenarioCatalogAcrossSchedulers(t *testing.T) {
	for _, sc := range workload.Catalog() {
		for _, sched := range sim.SchedulerNames() {
			sc, sched := sc, sched
			t.Run(sc.Name+"/"+sched, func(t *testing.T) {
				t.Parallel()
				res, err := runScenario(sc, sched, goldenSeed, false)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("oracle violations (reproduce: scenario=%s sched=%s seed=%d): %v",
						sc.Name, sched, goldenSeed, res.Violations)
				}
				if res.Errors > 0 {
					t.Fatalf("%d request errors", res.Errors)
				}
				if res.Granted == 0 {
					t.Fatal("scenario granted nothing; catalog entry is vacuous")
				}
				if res.Requests < sc.Requests {
					t.Fatalf("generator ran dry after %d of %d requests", res.Requests, sc.Requests)
				}
			})
		}
	}
}

// TestScenarioScheduleInvariance checks the engine's central property: the
// protocol's per-request drains commute, so the outcome trace and even the
// transport message count must be identical under every delivery schedule.
func TestScenarioScheduleInvariance(t *testing.T) {
	for _, sc := range workload.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			base, err := runScenario(sc, "fifo", goldenSeed, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range sim.SchedulerNames() {
				res, err := runScenario(sc, sched, goldenSeed, false)
				if err != nil {
					t.Fatalf("%s: %v", sched, err)
				}
				if res.TraceHash != base.TraceHash {
					t.Fatalf("%s: trace hash %s, fifo %s — outcomes depend on the schedule",
						sched, res.TraceHash, base.TraceHash)
				}
				if res.TransportMessages != base.TransportMessages {
					t.Fatalf("%s: %d transport messages, fifo %d",
						sched, res.TransportMessages, base.TransportMessages)
				}
				if res.Granted != base.Granted || res.Rejected != base.Rejected {
					t.Fatalf("%s: granted/rejected %d/%d, fifo %d/%d",
						sched, res.Granted, res.Rejected, base.Granted, base.Rejected)
				}
			}
		})
	}
}

// TestScenarioSeedReproducibility: one seed, one trace — twice; a different
// seed must explore a different trace.
func TestScenarioSeedReproducibility(t *testing.T) {
	sc, err := workload.ScenarioByName("churn-storm")
	if err != nil {
		t.Fatal(err)
	}
	a, err := runScenario(sc, "random", 42, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScenario(sc, "random", 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash || a.TransportMessages != b.TransportMessages {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := runScenario(sc, "random", 43, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatal("seeds 42 and 43 produced identical traces")
	}
}

// TestCrashRestartMatchesUndisturbedRun is the recovery-exactness
// property behind the crash-restart scenario: stripping the durability
// axis (no crashes, no WAL) from the scenario must yield the identical
// outcome trace — recovery reconstructs the controller so faithfully that
// the request stream cannot tell the crashes happened.
func TestCrashRestartMatchesUndisturbedRun(t *testing.T) {
	sc, err := workload.ScenarioByName("crash-restart")
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := runScenario(sc, "random", goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Restarts == 0 {
		t.Fatal("crash-restart scenario injected no restarts")
	}
	if len(crashed.Violations) > 0 {
		t.Fatalf("violations across restarts: %v", crashed.Violations)
	}
	sc.Durability = workload.DurabilitySpec{}
	smooth, err := runScenario(sc, "random", goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.TraceHash != smooth.TraceHash {
		t.Fatalf("crash-restart trace %s differs from undisturbed trace %s: recovery is not exact",
			crashed.TraceHash, smooth.TraceHash)
	}
	if crashed.Granted != smooth.Granted || crashed.FinalNodes != smooth.FinalNodes {
		t.Fatalf("crashed run granted=%d nodes=%d, undisturbed granted=%d nodes=%d",
			crashed.Granted, crashed.FinalNodes, smooth.Granted, smooth.FinalNodes)
	}
}

// goldenEntry is one pinned scenario behavior in the regression corpus.
type goldenEntry struct {
	Scenario          string `json:"scenario"`
	Requests          int    `json:"requests"`
	Granted           int64  `json:"granted"`
	Rejected          int64  `json:"rejected"`
	Crashes           int    `json:"crashes"`
	Restarts          int    `json:"restarts"`
	TopoChanges       int64  `json:"topo_changes"`
	TransportMessages int64  `json:"transport_messages"`
	FinalNodes        int    `json:"final_nodes"`
	TraceHash         string `json:"trace_hash"`
}

type goldenFile struct {
	Schema  int           `json:"schema"`
	Seed    int64         `json:"seed"`
	Entries []goldenEntry `json:"entries"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_traces.json") }

func runGolden(t *testing.T) []goldenEntry {
	t.Helper()
	var entries []goldenEntry
	for _, sc := range workload.Catalog() {
		res, err := runScenario(sc, "random", goldenSeed, false)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: oracle violations in golden run: %v", sc.Name, res.Violations)
		}
		entries = append(entries, goldenEntry{
			Scenario:          res.Scenario,
			Requests:          res.Requests,
			Granted:           res.Granted,
			Rejected:          res.Rejected,
			Crashes:           res.Crashes,
			Restarts:          res.Restarts,
			TopoChanges:       res.TopoChanges,
			TransportMessages: res.TransportMessages,
			FinalNodes:        res.FinalNodes,
			TraceHash:         res.TraceHash,
		})
	}
	return entries
}

// TestGoldenTraces replays the catalog against the committed golden-trace
// corpus: any behavioral drift — one more message, one different outcome —
// fails until the corpus is regenerated with
//
//	go test ./internal/workload -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(goldenFile{Schema: 1, Seed: goldenSeed, Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden corpus rewritten: %d entries", len(got))
		return
	}
	buf, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != goldenSeed {
		t.Fatalf("golden corpus seed %d, test uses %d", want.Seed, goldenSeed)
	}
	byName := make(map[string]goldenEntry, len(want.Entries))
	for _, e := range want.Entries {
		byName[e.Scenario] = e
	}
	for _, g := range got {
		w, ok := byName[g.Scenario]
		if !ok {
			t.Errorf("scenario %s missing from golden corpus (regenerate with -update)", g.Scenario)
			continue
		}
		if g != w {
			t.Errorf("scenario %s drifted:\n got %+v\nwant %+v\n(regenerate with -update if intended)",
				g.Scenario, g, w)
		}
	}
	if len(want.Entries) != len(got) {
		t.Errorf("golden corpus has %d entries, catalog has %d", len(want.Entries), len(got))
	}
}

// TestScenarioSweepLong is the nightly long-run sweep: the full catalog at
// long request counts across every scheduler. Gated so regular and -short
// runs skip it; CI's scheduled job sets SCENARIO_LONG=1.
func TestScenarioSweepLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep skipped in -short mode")
	}
	if os.Getenv("SCENARIO_LONG") == "" {
		t.Skip("long sweep runs nightly; set SCENARIO_LONG=1 to run locally")
	}
	results, err := scenario.Sweep(workload.Catalog(), sim.SchedulerNames(), goldenSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if len(res.Violations) > 0 {
			t.Errorf("%s × %s (seed %d): %v", res.Scenario, res.Scheduler, res.Seed, res.Violations)
		}
		if res.Errors > 0 {
			t.Errorf("%s × %s: %d request errors", res.Scenario, res.Scheduler, res.Errors)
		}
	}
}
