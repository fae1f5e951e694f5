package bench

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside that layer.
// Start and End are nanoseconds since the recorder was created. Parent is
// the index of the span that caused this one (-1 for none); ID is the chunk
// the call served, so all spans of one chunk share it across rungs.
type Span struct {
	Name   int
	Start  int64
	End    int64
	Parent int
	ID     int64
}

// Recorder keeps spans in memory until the traced run ends. A nil
// *Recorder records nothing, so drivers call it unconditionally and the
// end-to-end runs pay one nil check per call.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	names []string
	spans []Span
}

// NewRecorder returns an empty recorder with room for the given number of
// spans: growing the slice mid-run would copy megabytes inside whichever
// span happened to be open.
func NewRecorder(spans int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, spans)}
}

// Name registers a span name and returns its index for Begin.
func (r *Recorder) Name(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	r.names = append(r.names, name)
	return len(r.names) - 1
}

// Begin opens a span and returns its index (-1 on a nil recorder).
func (r *Recorder) Begin(name, parent int, id int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	i := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Parent: parent, ID: id})
	// Stamped under the lock, because a concurrent Begin may move the
	// backing array, and as the last step, so that neither the wait for
	// the lock nor a growing slice is inside the span.
	r.spans[i].Start = int64(time.Since(r.epoch))
	r.mu.Unlock()
	return i
}

// End closes the span Begin returned and returns its duration.
func (r *Recorder) End(i int) time.Duration {
	if r == nil {
		return 0
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[i].End = end
	d := end - r.spans[i].Start
	r.mu.Unlock()
	return time.Duration(d)
}

// SpanTotals aggregates the spans of one name.
type SpanTotals struct {
	Count int64
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
}

// SelfTimes returns, per span name, the number of spans, their summed
// duration and their summed self time. A span's self time is its duration
// minus the part of its interval that its child spans cover; overlapping
// children are counted once, and a child reaching outside its parent is
// clipped to it.
func SelfTimes(names []string, spans []Span) map[string]SpanTotals {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]SpanTotals, len(names))
	for i, s := range spans {
		dur := s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[names[s.Name]]
		t.Count++
		t.Total += dur
		t.Self += dur - covered
		out[names[s.Name]] = t
	}
	return out
}

// Totals is SelfTimes over everything recorded so far.
func (r *Recorder) Totals() map[string]SpanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SelfTimes(r.names, r.spans)
}

// Durations returns the durations (ns) of every span with the given name.
func (r *Recorder) Durations(name int) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// WriteJSON writes the spans and their per-name totals to path. Spans are
// rows of [name index, start ns, end ns, parent index, chunk id].
func (r *Recorder) WriteJSON(path, workload string, seed int64) error {
	totals := r.Totals()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"names\":[", workload, seed)
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\"totals\":{")
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		t := totals[n]
		fmt.Fprintf(w, "%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", n, t.Count, t.Total, t.Self)
	}
	w.WriteString("},\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"chunk\"],\"spans\":[")
	var num []byte
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		num = append(num[:0], '[')
		num = strconv.AppendInt(num, int64(s.Name), 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, s.Start, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, s.End, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, int64(s.Parent), 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, s.ID, 10)
		num = append(num, ']')
		w.Write(num)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
