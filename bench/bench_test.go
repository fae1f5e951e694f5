package bench

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/workload"
)

func TestSameSeedSameInput(t *testing.T) {
	for _, w := range Workloads() {
		var hashes [3]uint64
		for i, seed := range []int64{1, 1, 2} {
			in, err := Generate(w, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			hashes[i] = in.Hash()
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: seed 1 generated two different inputs", w.Name)
		}
		if hashes[0] == hashes[2] {
			t.Errorf("%s: seeds 1 and 2 generated the same input", w.Name)
		}
	}
}

func TestChunksCoverEachConnectionOnce(t *testing.T) {
	for _, w := range Workloads() {
		in, err := Generate(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for c := 0; c < Conns; c++ {
			n := 0
			for k := 0; k < in.NumChunks(); k++ {
				n += len(in.Chunk(c, k))
			}
			if n != w.Count/Conns {
				t.Errorf("%s: connection %d sends %d requests, want %d", w.Name, c, n, w.Count/Conns)
			}
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.999},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := Percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond it)", got)
	}
	if got := Percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := Spread([]float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1, 2 = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	names := []string{"parent", "child", "grandchild"}
	spans := []Span{
		{Name: 0, Start: 0, End: 100, Parent: -1},   // 0
		{Name: 1, Start: 10, End: 30, Parent: 0},    // nested
		{Name: 1, Start: 20, End: 50, Parent: 0},    // overlaps the one before
		{Name: 1, Start: 90, End: 120, Parent: 0},   // reaches past its parent
		{Name: 2, Start: 12, End: 18, Parent: 1},    // nested two deep
		{Name: 0, Start: 200, End: 260, Parent: -1}, // no children
	}
	got := SelfTimes(names, spans)
	// Children cover [10,50) and [90,100) of the first parent: 50 of 100.
	if p := got["parent"]; p.Count != 2 || p.Total != 160 || p.Self != 50+60 {
		t.Errorf("parent totals = %+v, want count 2, total 160, self 110", p)
	}
	// The first child loses the grandchild's 6; the others keep all of theirs.
	if c := got["child"]; c.Count != 3 || c.Total != 20+30+30 || c.Self != 14+30+30 {
		t.Errorf("child totals = %+v, want count 3, total 80, self 74", c)
	}
	if g := got["grandchild"]; g.Total != 6 || g.Self != 6 {
		t.Errorf("grandchild totals = %+v, want total 6, self 6", g)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *Recorder
	sp := r.Begin(r.Name("x"), -1, 1)
	if sp != -1 || r.End(sp) != 0 {
		t.Errorf("a nil recorder recorded something")
	}
}

func TestConfineBindsEveryThread(t *testing.T) {
	defer Confine(false) //nolint:errcheck // checked below
	if err := Confine(true); err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Errorf("GOMAXPROCS = %d after Confine(true)", got)
	}
	one := allowed.last()
	tasks, err := filepath.Glob("/proc/self/task/*/status")
	if err != nil || len(tasks) == 0 {
		t.Fatalf("no threads listed: %v", err)
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the listing
		}
		for _, line := range strings.Split(string(b), "\n") {
			if list, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				cpu, err := strconv.Atoi(strings.TrimSpace(list))
				if err != nil || !one.has(cpu) {
					t.Errorf("%s: Cpus_allowed_list %q, want the one processor of %v", path, list, one[:1])
				}
			}
		}
	}
	if err := Confine(false); err != nil {
		t.Fatal(err)
	}
	if now, err := getAffinity(); err != nil || now != allowed || runtime.GOMAXPROCS(0) != allowed.count() {
		t.Errorf("Confine(false) left mask %v (%v), GOMAXPROCS %d; started with %v", now[:1], err, runtime.GOMAXPROCS(0), allowed[:1])
	}
}

func TestHostProbe(t *testing.T) {
	p := startProbe()
	time.Sleep(10 * probePeriod)
	p.Stop()
	slowdown, err := p.Take()
	if err != nil || slowdown <= 0 {
		t.Errorf("Take = %v, %v after ten periods", slowdown, err)
	}
	if _, err := p.Take(); err == nil {
		t.Errorf("a second Take with no new sample returned no error")
	}
}

func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	spec, err := LoadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range Exact {
		if !seen[name] {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
}

// TestRunnerEmitsEveryMetric drives both kinds of run, against the real
// daemon, over workloads small enough for a unit test, and requires each to
// fill every name BENCHMARK.json lists for it, pass its own checks and
// repeat its exact counts.
func TestRunnerEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dynctrld")
	}
	env, err := NewEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	small := workload.TopologySpec{Kind: "balanced", Nodes: 32}
	for _, w := range []Workload{
		// Grows the tree, exhausts M halfway and logs to a WAL: every
		// closed-loop layer is entered and the reject checks run.
		{Name: "test-closed", Topology: small, AddLeafPct: 25, Chunk: 16, Count: 4096, M: 2048, W: 256, WAL: true},
		{Name: "test-open", Topology: small, Chunk: 1, Count: 2000, M: 8000, W: 4000, OpenRate: 10_000},
	} {
		in, err := Generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := env.RunE2E(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewResult(EndToEnd, e2e.Values, e2e.Checks); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if e2e.Iterations != minIterations || e2e.Failed != 0 || len(e2e.Problems) != 0 {
			t.Errorf("%s: %d iterations, %d failed, problems %v", w.Name, e2e.Iterations, e2e.Failed, e2e.Problems)
		}
		var exact [2]map[string]float64
		for i := range exact {
			tr, err := env.RunTraced(in)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewResult(PerLayer, tr.Values, tr.Checks); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if tr.Failed != 0 || len(tr.Problems) != 0 {
				t.Errorf("%s: traced run: %d failed, problems %v", w.Name, tr.Failed, tr.Problems)
			}
			exact[i] = tr.Values.V
		}
		for name := range Exact {
			if exact[0][name] != exact[1][name] {
				t.Errorf("%s: %s read %v then %v at one seed", w.Name, name, exact[0][name], exact[1][name])
			}
		}
	}
}
