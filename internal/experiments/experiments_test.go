package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynctrl/internal/stats"
)

// TestExperimentsProduceTables smoke-tests the cheaper experiments: every
// table must render with a title, headers and at least one data row, and
// the invariant columns must never report a violation.
func TestExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment tables; skipped in -short")
	}
	cases := []struct {
		name string
		run  func() interface{ String() string }
	}{
		{"E6", func() interface{ String() string } { return e6Liveness() }},
		{"E13", func() interface{ String() string } { return e13Memory() }},
		{"E14", func() interface{ String() string } { return e14Ablation() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := tc.run().String()
			if !strings.Contains(out, "==") {
				t.Fatalf("missing title:\n%s", out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) < 4 {
				t.Fatalf("table too short:\n%s", out)
			}
			if strings.Contains(out, "false") {
				t.Fatalf("an invariant column reports a violation:\n%s", out)
			}
		})
	}
}

// TestE6AllConfigurationsPass asserts the liveness table's ok column.
func TestE6AllConfigurationsPass(t *testing.T) {
	tb := e6Liveness()
	for _, row := range tb.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("configuration failed: %v", row)
		}
	}
}

// TestE14OccupancyBelowBound asserts the ablation's occupancy column stays
// below 1 (the domain-invariant bound).
func TestE14OccupancyBelowBound(t *testing.T) {
	tb := e14Ablation()
	if len(tb.Rows) == 0 {
		t.Fatal("no occupancy rows; the workload should span several levels")
	}
	for _, row := range tb.Rows {
		occ := row[len(row)-1]
		if strings.HasPrefix(occ, "1") && occ != "1.000" || strings.HasPrefix(occ, "2") {
			t.Fatalf("occupancy %s reaches the bound: %v", occ, row)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden E-tables")

// TestGoldenTables pins every number of E1–E14: the tables are seeded and
// deterministic, so one more message in an application, one different
// verdict or one more iteration anywhere under them fails here until the
// golden is regenerated with
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment tables; skipped in -short")
	}
	var b strings.Builder
	for _, tb := range All() {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden tables (regenerate with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("E-tables drifted from %s (regenerate with -update if intended):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n want %s\n  got %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// BenchmarkExperiments runs each experiment table once per iteration.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range []struct {
		name string
		run  func() *stats.Table
	}{
		{"E1", e1CentralizedMoves},
		{"E2", e2WasteSweep},
		{"E3", e3UnknownU},
		{"E4", e4MaxN},
		{"E5", e5DistVsCentral},
		{"E6", e6Liveness},
		{"E7", e7VsGrowOnly},
		{"E8", e8VsTrivial},
		{"E9", e9SizeEstimation},
		{"E10", e10Naming},
		{"E11", e11HeavyChild},
		{"E12", e12Labeling},
		{"E13", e13Memory},
		{"E14", e14Ablation},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tb := e.run(); len(tb.Rows) == 0 {
					b.Fatalf("%s: empty table", tb.Title)
				}
			}
		})
	}
}
