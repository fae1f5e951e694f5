package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"decode", "queue", "execute", "wal", "write", "total"}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, name := range want {
		if got := Stage(i).String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", i, got, name)
		}
	}
	if got := Stage(99).String(); got != "unknown" {
		t.Errorf("Stage(99).String() = %q, want unknown", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Record(&BatchTrace{Total: time.Second}); id != 0 {
		t.Errorf("nil Record = %d", id)
	}
	tr.RecordFsync(time.Second)
	if n := tr.Recorded(); n != 0 {
		t.Errorf("nil Recorded = %d", n)
	}
	if s := tr.RingSize(); s != 0 {
		t.Errorf("nil RingSize = %d", s)
	}
	if got := tr.Recent(4); got != nil {
		t.Errorf("nil Recent = %v", got)
	}
	if got := tr.Slowest(4); got != nil {
		t.Errorf("nil Slowest = %v", got)
	}
	if got := tr.Snapshot(); got.Stages != nil || got.Recorded != 0 || got.Fsync.Count != 0 {
		t.Errorf("nil Snapshot = %+v", got)
	}
}

func TestNewTracerRoundsRingToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultRing}, {-5, DefaultRing}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {256, 256},
	} {
		if got := NewTracer(tc.in, 4).RingSize(); got != tc.want {
			t.Errorf("NewTracer(%d).RingSize() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestNewTracerRingIsCapped: a ring request above the 65 536-trace maximum
// gets the maximum. Rounding math.MaxInt up by doubling an int wraps to
// zero and never ends, so the constructor runs under a deadline and the
// test fails instead of hanging.
func TestNewTracerRingIsCapped(t *testing.T) {
	const maxRing = 1 << 16
	for _, in := range []int{maxRing, maxRing + 1, math.MaxInt} {
		got := make(chan int, 1)
		go func() { got <- NewTracer(in, 4).RingSize() }()
		select {
		case size := <-got:
			if size != maxRing {
				t.Errorf("NewTracer(%d).RingSize() = %d, want %d", in, size, maxRing)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("NewTracer(%d) had not returned after 2s", in)
		}
	}
}

func TestRecentNewestFirstAndWrap(t *testing.T) {
	tr := NewTracer(4, 4)
	for i := 1; i <= 10; i++ {
		tr.Record(&BatchTrace{Total: time.Duration(i)})
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	recent := tr.Recent(8)
	if len(recent) != 4 {
		t.Fatalf("Recent(8) returned %d traces from a 4-slot ring", len(recent))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if recent[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != 10 || got[1].ID != 9 {
		t.Errorf("Recent(2) = %v", ids(got))
	}
}

func TestSlowestKeepsTopK(t *testing.T) {
	tr := NewTracer(8, 3)
	// Interleave so the slice sees admissions and evictions in mixed order;
	// trace k of the run is ID k.
	for _, ms := range []int{5, 1, 9, 2, 8, 3, 7, 4, 6} {
		tr.Record(&BatchTrace{Total: time.Duration(ms) * time.Millisecond})
	}
	slow := tr.Slowest(10)
	if len(slow) != 3 {
		t.Fatalf("Slowest returned %d traces, cap is 3", len(slow))
	}
	for i, want := range []uint64{3, 5, 7} { // the 9, 8 and 7 ms traces
		if slow[i].ID != want {
			t.Errorf("slowest[%d].ID = %d, want %d (got %v)", i, slow[i].ID, want, ids(slow))
		}
	}
	if got := tr.Slowest(1); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("Slowest(1) = %v", ids(got))
	}
}

func ids(traces []BatchTrace) []uint64 {
	out := make([]uint64, len(traces))
	for i, bt := range traces {
		out[i] = bt.ID
	}
	return out
}

func TestSnapshotQuantiles(t *testing.T) {
	tr := NewTracer(16, 4)
	for i := 1; i <= 100; i++ {
		bt := &BatchTrace{Total: time.Duration(i) * time.Millisecond}
		bt.Stages[StageExecute] = time.Duration(i) * time.Microsecond
		tr.Record(bt)
	}
	snap := tr.Snapshot().Stages
	if len(snap) != NumStages {
		t.Fatalf("Snapshot returned %d stages, want %d", len(snap), NumStages)
	}
	if snap[len(snap)-1].Stage != "total" {
		t.Fatalf("last snapshot row is %q, want total", snap[len(snap)-1].Stage)
	}
	total := snap[StageTotal]
	if total.Count != 100 {
		t.Errorf("total count = %d, want 100", total.Count)
	}
	if total.Max != 100*time.Millisecond {
		t.Errorf("total max = %v, want 100ms", total.Max)
	}
	// hdr quantization error is <= 1.6%; allow 5% slack.
	if got, want := total.P50, 50*time.Millisecond; !within(got, want, 0.05) {
		t.Errorf("total p50 = %v, want ~%v", got, want)
	}
	if got, want := total.P99, 99*time.Millisecond; !within(got, want, 0.05) {
		t.Errorf("total p99 = %v, want ~%v", got, want)
	}
	exec := snap[StageExecute]
	if exec.Count != 100 {
		t.Errorf("execute count = %d, want 100", exec.Count)
	}
	if got, want := exec.P50, 50*time.Microsecond; !within(got, want, 0.05) {
		t.Errorf("execute p50 = %v, want ~%v", got, want)
	}
	// Stages that never saw a sample still report their zero recordings.
	if snap[StageWAL].Max != 0 {
		t.Errorf("wal max = %v, want 0", snap[StageWAL].Max)
	}
}

func within(got, want time.Duration, frac float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= frac*float64(want)
}

// TestTracerConcurrent is the one-mutex claim under the race detector:
// traces, fsync waves and every reader at once, and nothing is lost or
// numbered twice.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32, 8)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent readers while writers publish
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recent := tr.Recent(16)
			for i := 1; i < len(recent); i++ {
				if recent[i].ID != recent[i-1].ID-1 {
					t.Errorf("Recent under load: IDs %v, want consecutive", ids(recent))
					return
				}
			}
			tr.Slowest(8)
			if d := tr.Snapshot(); d.Stages[StageTotal].Count != int64(d.Recorded) || d.Hold.Count != int64(d.Recorded) {
				t.Errorf("one Snapshot: %d traces, total count %d, hold count %d",
					d.Recorded, d.Stages[StageTotal].Count, d.Hold.Count)
				return
			}
		}
	}()
	seen := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				bt := BatchTrace{Total: time.Duration(i+1) * time.Microsecond}
				seen[w] = append(seen[w], tr.Record(&bt))
				tr.RecordFsync(time.Microsecond)
			}
		}()
	}
	for tr.Recorded() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := tr.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
	d := tr.Snapshot()
	if got := d.Stages[StageTotal].Count; got != writers*perWriter {
		t.Fatalf("total histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := d.Fsync.Count; got != writers*perWriter {
		t.Fatalf("fsync count = %d, want %d", got, writers*perWriter)
	}
	if got := len(tr.Recent(64)); got != 32 {
		t.Fatalf("Recent(64) = %d traces, want a full 32-slot ring", got)
	}
	given := map[uint64]bool{}
	for _, w := range seen {
		for i, id := range w {
			if given[id] || id == 0 || (i > 0 && id <= w[i-1]) {
				t.Fatalf("Record returned ID %d twice, as zero or out of order", id)
			}
			given[id] = true
		}
	}
}

// TestHoldAndFsyncRows: the lock-hold and fsync-wave rows keep count, sum
// and extremes like the recorders they replaced, apart from each other and
// from the stages, and Recorded is the last ID Record gave out.
func TestHoldAndFsyncRows(t *testing.T) {
	tr := NewTracer(4, 4)
	var last uint64
	for i := 1; i <= 10; i++ {
		last = tr.Record(&BatchTrace{Hold: time.Duration(i) * time.Millisecond})
		if i%2 == 0 {
			tr.RecordFsync(time.Duration(i) * time.Second)
		}
	}
	if got := tr.Recorded(); got != last || last != 10 {
		t.Errorf("Recorded = %d, last Record returned %d, want both 10", got, last)
	}
	d := tr.Snapshot()
	if d.Recorded != 10 {
		t.Errorf("Digest.Recorded = %d, want 10", d.Recorded)
	}
	for _, tc := range []struct {
		row           string
		st            LatencyStats
		count         int64
		min, max, sum time.Duration
	}{
		{"hold", d.Hold, 10, time.Millisecond, 10 * time.Millisecond, 55 * time.Millisecond},
		{"fsync", d.Fsync, 5, 2 * time.Second, 10 * time.Second, 30 * time.Second},
		{"total", d.Stages[StageTotal].LatencyStats, 10, 0, 0, 0},
	} {
		if tc.st.Count != tc.count {
			t.Errorf("%s count = %d, want %d", tc.row, tc.st.Count, tc.count)
		}
		if tc.st.Min != tc.min || tc.st.Max != tc.max {
			t.Errorf("%s min/max = %v/%v, want %v/%v", tc.row, tc.st.Min, tc.st.Max, tc.min, tc.max)
		}
		if tc.st.Sum != tc.sum {
			t.Errorf("%s sum = %v, want %v", tc.row, tc.st.Sum, tc.sum)
		}
	}
}

// TestRecordAllocatesNothing: a trace is copied in, whichever way it goes:
// admitted into the slowest-N (every trace slower than the last), refused
// there (every trace faster), around the ring many times over either way.
func TestRecordAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		step time.Duration
	}{
		{"admitting into slowest-N", time.Microsecond},
		{"wrapping the ring", -time.Microsecond},
	} {
		tr := NewTracer(8, 4)
		bt := BatchTrace{Total: time.Hour, Conn: "127.0.0.1:9", Start: time.Now()}
		if got := testing.AllocsPerRun(100, func() {
			bt.Total += tc.step
			tr.Record(&bt)
			tr.RecordFsync(bt.Total)
		}); got != 0 {
			t.Errorf("%s: %v allocations a Record, want 0", tc.name, got)
		}
		if tr.Recorded() <= uint64(tr.RingSize()) {
			t.Errorf("%s: %d traces never wrapped a %d-slot ring", tc.name, tr.Recorded(), tr.RingSize())
		}
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want slog.Level
	}{
		{"debug", slog.LevelDebug}, {"info", slog.LevelInfo}, {"", slog.LevelInfo},
		{"warn", slog.LevelWarn}, {"warning", slog.LevelWarn}, {"ERROR", slog.LevelError},
		{" Info ", slog.LevelInfo},
	} {
		got, err := ParseLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) succeeded")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "tenant", "blue")
	if out := buf.String(); !strings.Contains(out, `"msg":"hello"`) || !strings.Contains(out, `"tenant":"blue"`) {
		t.Errorf("json output = %q", out)
	}
	buf.Reset()
	lg.Debug("dropped")
	if buf.Len() != 0 {
		t.Errorf("debug leaked through info level: %q", buf.String())
	}

	buf.Reset()
	lg, err = NewLogger(&buf, slog.LevelDebug, "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("visible")
	if !strings.Contains(buf.String(), "msg=visible") {
		t.Errorf("text output = %q", buf.String())
	}

	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Error("NewLogger(yaml) succeeded")
	}
}

func TestNopLogger(t *testing.T) {
	lg := NopLogger()
	// Must not panic and must report disabled at every level.
	lg.Error("dropped")
	if lg.Enabled(nil, slog.LevelError) { //nolint:staticcheck
		t.Error("NopLogger enabled at error level")
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"", ""},
	} {
		if got := EscapeLabel(tc.in); got != tc.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteTracez(t *testing.T) {
	tr := NewTracer(8, 4)
	bt := &BatchTrace{
		ID:       7,
		Start:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Total:    3 * time.Millisecond,
		Frames:   2,
		Requests: 5,
		Grants:   4,
		Rejects:  1,
		Conn:     "127.0.0.1:9",
	}
	bt.Stages[StageExecute] = time.Millisecond
	tr.Record(bt)

	var buf bytes.Buffer
	WriteTracez(&buf, "blue", tr, 4, 4)
	out := buf.String()
	for _, want := range []string{
		`== tenant "blue" ==`,
		"traces recorded: 1 (ring 8)",
		"slowest 4 batches:",
		"most recent 4 batches:",
		"exec=1.00ms",
		"conn=127.0.0.1:9",
		"yes", // wave column
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tracez output lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	WriteTracez(&buf, "off", nil, 4, 4)
	if out := buf.String(); !strings.Contains(out, "tracing disabled") {
		t.Errorf("nil-tracer output = %q", out)
	}

	buf.Reset()
	WriteTracez(&buf, "empty", NewTracer(8, 4), 4, 4)
	if out := buf.String(); !strings.Contains(out, "(none)") {
		t.Errorf("empty-tracer output lacks (none): %q", out)
	}
}

// TestTracezWaveColumnFollowsRejects: the wave column reads "yes" exactly
// for a batch with rejects, since the controller rejects only inside its
// reject wave, and "-" otherwise.
func TestTracezWaveColumnFollowsRejects(t *testing.T) {
	tr := NewTracer(8, 4)
	for _, rejects := range []int64{1, 0, 3} {
		tr.Record(&BatchTrace{Total: time.Millisecond, Requests: 3, Grants: 3 - rejects, Rejects: rejects})
	}
	var buf bytes.Buffer
	WriteTracez(&buf, "blue", tr, 4, 4)
	rows := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		// trace, start, total, frames, reqs, grants, rej, moves, wave, dec=…
		f := strings.Fields(line)
		if len(f) < 10 || !strings.HasPrefix(f[9], "dec=") {
			continue
		}
		rows++
		if want := map[bool]string{true: "yes", false: "-"}[f[6] != "0"]; f[8] != want {
			t.Errorf("trace row with rej %s has wave %q, want %q: %s", f[6], f[8], want, line)
		}
	}
	if rows != 6 {
		t.Errorf("%d trace rows, want 6 (three traces in each table):\n%s", rows, buf.String())
	}
}

func TestFdur(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want string
	}{
		{0, "0"}, {-time.Second, "0"},
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.5µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{1500 * time.Millisecond, "1.500s"},
	} {
		if got := fdur(tc.in); got != tc.want {
			t.Errorf("fdur(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := NewTracer(256, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt := BatchTrace{Total: time.Duration(i%1000) * time.Microsecond, Conn: "127.0.0.1:9"}
		bt.Stages[StageExecute] = time.Microsecond
		tr.Record(&bt)
	}
}

func ExampleWriteTracez() {
	WriteTracez(new(bytes.Buffer), "default", nil, 4, 4)
	fmt.Println("ok")
	// Output: ok
}
