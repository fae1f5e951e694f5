package obs

import (
	"fmt"
	"io"
	"strings"
)

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote and newline.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

// promSample is one rendered sample line of a family: optional name
// suffix (summary _sum/_count), rendered label set, rendered value.
type promSample struct {
	suffix string
	labels string
	value  string
}

// PromFamily is one metric family of the Prometheus text exposition
// format: the HELP/TYPE header plus the family's samples, kept
// consecutive regardless of which tenant contributed them.
type PromFamily struct {
	name, typ, help string
	samples         []promSample
}

// Add appends one sample under the rendered label set (empty, or
// `{k="v",...}` with values already escaped by EscapeLabel).
func (f *PromFamily) Add(labels, format string, args ...any) {
	f.addSuffixed("", labels, format, args...)
}

func (f *PromFamily) addSuffixed(suffix, labels, format string, args ...any) {
	f.samples = append(f.samples, promSample{suffix: suffix, labels: labels, value: fmt.Sprintf(format, args...)})
}

// AddSummary renders one LatencyStats distribution as a summary family's
// quantile/_sum/_count samples in seconds, under the given base labels
// (without the closing brace).
func (f *PromFamily) AddSummary(base string, ls LatencyStats) {
	f.Add(base+`,quantile="p50"}`, "%.9f", ls.P50.Seconds())
	f.Add(base+`,quantile="p99"}`, "%.9f", ls.P99.Seconds())
	f.Add(base+`,quantile="p999"}`, "%.9f", ls.P999.Seconds())
	f.addSuffixed("_sum", base+"}", "%.9f", ls.Sum.Seconds())
	f.addSuffixed("_count", base+"}", "%d", ls.Count)
}

// PromDoc collects families in first-use order and renders the document.
type PromDoc struct {
	fams []*PromFamily
	idx  map[string]*PromFamily
}

// NewPromDoc returns an empty exposition document.
func NewPromDoc() *PromDoc { return &PromDoc{idx: map[string]*PromFamily{}} }

// Family returns the named family, declaring it on first use.
func (d *PromDoc) Family(name, typ, help string) *PromFamily {
	if f, ok := d.idx[name]; ok {
		return f
	}
	f := &PromFamily{name: name, typ: typ, help: help}
	d.fams = append(d.fams, f)
	d.idx[name] = f
	return f
}

// Write renders the document in text exposition format 0.0.4.
func (d *PromDoc) Write(w io.Writer) {
	for _, f := range d.fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, sm := range f.samples {
			fmt.Fprintf(w, "%s%s%s %s\n", f.name, sm.suffix, sm.labels, sm.value)
		}
	}
}

// Gauge and Counter add one integer-valued sample to the named family,
// declaring the family on first use.
func (d *PromDoc) Gauge(name, help, labels string, v any) {
	d.Family(name, "gauge", help).Add(labels, "%d", v)
}

func (d *PromDoc) Counter(name, help, labels string, v any) {
	d.Family(name, "counter", help).Add(labels, "%d", v)
}
