// Package stats provides counters and table formatting shared by the
// controller implementations, the experiments and the CLIs.
//
// The paper's cost measures are move complexity (centralized setting) and
// message complexity (distributed setting); both are pure event counts, so
// a Counters value simply accumulates named tallies. Series and Table help
// internal/experiments print the parameter sweeps of E1–E14, whose numbers
// its testdata/tables.golden pins.
//
// # Ownership
//
// A Counters value has no lock and no atomics. It belongs to whoever drives
// the controller that counts into it, as the tree does (package tree,
// Ownership): read it on that goroutine, or under the lock that orders the
// controller's submissions. The daemon's is tenant.mu (internal/server), the
// message-passing engine's handlers are ordered by their runtime, and a
// pipeline's counters are read after Flush or Close.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Counter names one of the repository's canonical event counts. The set is
// closed, so a Counters value is a fixed array indexed by Counter and an
// update is one add: no hashing of a name.
type Counter uint8

// The canonical counters. Their String names are what Snapshot, Restore and
// String speak, and so what a persisted snapshot holds.
const (
	// CounterMoves counts centralized move complexity (one unit per move
	// of a set of objects across one tree edge, Section 2.2).
	CounterMoves Counter = iota
	// CounterControl counts the control-plane messages of the distributed
	// setting: broadcast/upcast phases no transport carries explicitly.
	CounterControl
	// CounterGrants counts permits granted to requests.
	CounterGrants
	// CounterRejects counts rejects delivered to requests.
	CounterRejects
	// CounterTopoChanges counts applied topological changes.
	CounterTopoChanges
	// CounterIterations counts driver iterations (Obs 3.4 / Thm 3.5).
	CounterIterations

	numCounters
)

var counterNames = [numCounters]string{
	CounterMoves:       "moves",
	CounterControl:     "control-messages",
	CounterGrants:      "grants",
	CounterRejects:     "rejects",
	CounterTopoChanges: "topo-changes",
	CounterIterations:  "iterations",
}

// String returns the counter's persisted name.
func (c Counter) String() string {
	if c < numCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// Counters accumulates the canonical event counts. It is not safe for
// concurrent use: it has one owner (see Ownership in the package comment).
type Counters struct {
	counts [numCounters]int64
	// touched has bit c set once counter c was added to or restored.
	// Snapshot lists exactly those, zero or not, as the map this type used
	// to be did, so the bytes of a persisted snapshot do not change.
	touched uint32
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return new(Counters) }

// Add adds delta to counter name.
func (c *Counters) Add(name Counter, delta int64) {
	c.counts[name] += delta
	c.touched |= 1 << name
}

// Inc adds one to counter name.
func (c *Counters) Inc(name Counter) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name Counter) int64 { return c.counts[name] }

// Restore replaces every counter with the given values, keyed by counter
// name (the durability engine's recovery path fills a new set from a
// snapshot). A name outside the canonical set is an error and leaves
// the counters as they were.
func (c *Counters) Restore(values map[string]int64) error {
	var restored Counters
	for name, v := range values {
		i := slices.Index(counterNames[:], name)
		if i < 0 {
			return fmt.Errorf("stats: restore unknown counter %q", name)
		}
		restored.counts[i] = v
		restored.touched |= 1 << i
	}
	*c = restored
	return nil
}

// Snapshot returns a copy of every touched counter, keyed by counter name.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, numCounters)
	for i, name := range counterNames {
		if c.touched&(1<<i) != 0 {
			out[name] = c.counts[i]
		}
	}
	return out
}

// String renders the touched counters sorted by name.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}

// point is one (x, y) measurement in a parameter sweep.
type point struct {
	X float64
	Y float64
}

// Series is a named sequence of measurements.
type Series struct {
	Name   string
	Points []point
}

// Append adds a measurement.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, point{X: x, Y: y})
}

// GrowthExponent estimates b in y = a*x^b by least squares over log-log
// transformed points. It reports NaN with fewer than two points or
// non-positive coordinates.
func (s *Series) GrowthExponent() float64 {
	var xs, ys []float64
	for _, p := range s.Points {
		if p.X > 0 && p.Y > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(p.Y))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Table is a simple column-aligned text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one formatted row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Log2 returns log base 2 of n, with Log2(x<=1) = 0 to keep ratio
// denominators finite.
func Log2(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(n)
}

// CeilLog2 returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1).
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	v := 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
