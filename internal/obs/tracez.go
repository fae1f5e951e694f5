package obs

import (
	"fmt"
	"io"
	"time"
)

// WriteTracez renders one tenant's trace report in the plain-text /tracez
// format: a summary line, the per-stage latency digest, then the
// slowest-N and most-recent-N batch traces.
func WriteTracez(w io.Writer, tenant string, t *Tracer, slowN, recentN int) {
	if t == nil {
		fmt.Fprintf(w, "== tenant %q ==\ntracing disabled (-trace-ring < 0)\n", tenant)
		return
	}
	fmt.Fprintf(w, "== tenant %q ==\n", tenant)
	d := t.Snapshot()
	fmt.Fprintf(w, "traces recorded: %d (ring %d)\n\n", d.Recorded, t.ringSize())

	fmt.Fprintf(w, "stage latency (server-side):\n")
	fmt.Fprintf(w, "  %-8s %10s %12s %12s %12s %12s\n", "stage", "count", "p50", "p99", "p99.9", "max")
	for _, st := range d.Stages {
		fmt.Fprintf(w, "  %-8s %10d %12s %12s %12s %12s\n",
			st.Stage, st.Count, fdur(st.P50), fdur(st.P99), fdur(st.P999), fdur(st.Max))
	}

	fmt.Fprintf(w, "\nslowest %d batches:\n", slowN)
	writeTraces(w, t.slowest(slowN))
	fmt.Fprintf(w, "\nmost recent %d batches:\n", recentN)
	writeTraces(w, t.Recent(recentN))
	fmt.Fprintln(w)
}

func writeTraces(w io.Writer, traces []BatchTrace) {
	if len(traces) == 0 {
		fmt.Fprintf(w, "  (none)\n")
		return
	}
	fmt.Fprintf(w, "  %-8s %-15s %10s %7s %7s %7s %7s %8s %5s  %s\n",
		"trace", "start", "total", "frames", "reqs", "grants", "rej", "moves", "wave", "stages")
	for _, bt := range traces {
		// A batch that carried rejects ran inside the reject wave: the
		// controller rejects nothing outside it.
		wave := "-"
		if bt.Rejects > 0 {
			wave = "yes"
		}
		fmt.Fprintf(w, "  %-8d %-15s %10s %7d %7d %7d %7d %8d %5s  dec=%s queue=%s exec=%s wal=%s write=%s conn=%s\n",
			bt.ID, bt.Start.Format("15:04:05.000"), fdur(bt.Total),
			bt.Frames, bt.Requests, bt.Grants, bt.Rejects, bt.Moves, wave,
			fdur(bt.Stages[StageDecode]), fdur(bt.Stages[StageQueue]),
			fdur(bt.Stages[StageExecute]), fdur(bt.Stages[StageWAL]),
			fdur(bt.Stages[StageWrite]), bt.Conn)
	}
}

// fdur formats a duration compactly for fixed-width trace tables.
func fdur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
