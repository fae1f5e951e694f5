package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	c.Inc(CounterMoves)
	c.Add(CounterMoves, 4)
	c.Add(CounterGrants, 2)
	if got := c.Get(CounterMoves); got != 5 {
		t.Fatalf("moves = %d, want 5", got)
	}
	if got := c.Get(CounterRejects); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	snap := c.Snapshot()
	if _, listed := snap[CounterRejects.String()]; listed || len(snap) != 2 {
		t.Fatalf("snapshot %v lists an untouched counter", snap)
	}
	if snap["grants"] != 2 {
		t.Fatalf("snapshot grants = %d, want 2", snap["grants"])
	}
	snap["grants"] = 99
	if got := c.Get(CounterGrants); got != 2 {
		t.Fatal("snapshot must be a copy")
	}
	c.Reset()
	if got := c.Get(CounterMoves); got != 0 || len(c.Snapshot()) != 0 {
		t.Fatalf("after reset moves = %d and snapshot %v, want 0 and empty", got, c.Snapshot())
	}
}

// TestCountersRestore pins what a persisted snapshot relies on: Restore and
// Snapshot speak the counter names, a counter that was touched is listed
// even at zero (a zero-hop move adds 0 to the move count) and one that never
// was is not, and a name outside the canonical set is refused whole.
func TestCountersRestore(t *testing.T) {
	c := NewCounters()
	c.Add(CounterMoves, 0)
	c.Inc(CounterIterations)
	want := map[string]int64{"moves": 0, "iterations": 1}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	back := NewCounters()
	back.Inc(CounterGrants)
	if err := back.Restore(want); err != nil {
		t.Fatal(err)
	}
	if got := back.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored snapshot %v, want %v", got, want)
	}
	if err := back.Restore(map[string]int64{"grants": 7, "gremlins": 1}); err == nil {
		t.Fatal("Restore accepted an unknown counter name")
	}
	if got := back.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a refused Restore changed the counters to %v", got)
	}
	for i, name := range counterNames {
		if name == "" || Counter(i).String() != name {
			t.Fatalf("counter %d has name %q", i, name)
		}
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add(CounterMoves, 2)
	c.Add(CounterGrants, 1)
	if got := c.String(); got != "grants=1 moves=2" {
		t.Fatalf("String() = %q, want %q", got, "grants=1 moves=2")
	}
}

func TestGrowthExponent(t *testing.T) {
	tests := []struct {
		name string
		fn   func(x float64) float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 3 * x }, 1},
		{"quadratic", func(x float64) float64 { return x * x }, 2},
		{"constant", func(x float64) float64 { return 7 }, 0},
		{"nlogn", func(x float64) float64 { return x * math.Log2(x) }, 1.3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var s Series
			for x := 4.0; x <= 4096; x *= 2 {
				s.Append(x, tc.fn(x))
			}
			got := s.GrowthExponent()
			if math.Abs(got-tc.want) > 0.35 {
				t.Fatalf("exponent = %.3f, want about %.1f", got, tc.want)
			}
		})
	}
}

func TestGrowthExponentDegenerate(t *testing.T) {
	var s Series
	if !math.IsNaN(s.GrowthExponent()) {
		t.Fatal("empty series should yield NaN")
	}
	s.Append(1, 1)
	if !math.IsNaN(s.GrowthExponent()) {
		t.Fatal("single point should yield NaN")
	}
	s.Append(-1, 5) // dropped: non-positive x
	if !math.IsNaN(s.GrowthExponent()) {
		t.Fatal("one usable point should yield NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "n", "messages", "ratio")
	tb.AddRow(64, 1234, 1.5)
	tb.AddRow(128, 56789, 1.75)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title in %q", out)
	}
	if !strings.Contains(out, "56789") || !strings.Contains(out, "1.750") {
		t.Fatalf("missing cells in %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestCeilLog2(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tc := range tests {
		if got := CeilLog2(tc.n); got != tc.want {
			t.Fatalf("CeilLog2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestLog2(t *testing.T) {
	if got := Log2(0.5); got != 0 {
		t.Fatalf("Log2(0.5) = %v, want 0", got)
	}
	if got := Log2(8); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Log2(8) = %v, want 3", got)
	}
}

// BenchmarkCountersAdd is the cost the engine's slow path pays per counted
// event: one atomic add into a fixed array, 0 allocs/op.
func BenchmarkCountersAdd(b *testing.B) {
	c := NewCounters()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(CounterMoves, 3)
	}
	if got := c.Get(CounterMoves); got != 3*int64(b.N) {
		b.Fatalf("moves = %d, want %d", got, 3*b.N)
	}
}
