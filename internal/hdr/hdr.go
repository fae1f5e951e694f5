// Package hdr is a minimal HDR-style latency histogram: fixed log-linear
// buckets (64 linear sub-buckets per power of two, <=1.6% relative error)
// over the full int64 nanosecond range, constant memory, no allocation on
// the record path. It gives the tracer's stage rows their quantiles
// (p50/p99/p999) without pulling in an external histogram dependency.
//
// A Histogram is not safe for concurrent use; concurrent recorders keep
// one each and Merge them.
package hdr

import "math/bits"

const (
	// subBits fixes the linear resolution: 1<<subBits sub-buckets per
	// power of two, so the relative quantization error is at most
	// 1/(1<<subBits) (1.6% at 6 bits) — the usual "2-3 significant
	// figures" HDR configuration.
	subBits  = 6
	subCount = 1 << subBits
	// expCount covers every int64 magnitude: values below subCount are
	// exact in exponent row 0, every wider magnitude gets its own row.
	expCount = 64 - subBits + 1
)

// Histogram counts int64 samples (nanoseconds, by convention) in
// log-linear buckets.
type Histogram struct {
	counts [expCount][subCount]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{min: -1} }

// bucket maps a positive value to its (exponent row, linear sub-bucket).
func bucket(v int64) (int, int) {
	if v < subCount {
		return 0, int(v)
	}
	e := bits.Len64(uint64(v)) // e > subBits: 2^(e-1) <= v < 2^e
	shift := uint(e - 1 - subBits)
	return e - subBits, int((uint64(v) - 1<<uint(e-1)) >> shift)
}

// value returns the representative (bucket-midpoint) sample of a bucket;
// the inverse of bucket up to the quantization error.
func value(exp, sub int) int64 {
	if exp == 0 {
		return int64(sub)
	}
	width := int64(1) << uint(exp-1)
	return int64(1)<<uint(exp-1+subBits) + int64(sub)*width + width/2
}

// Record adds one sample. Non-positive samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	e, s := bucket(v)
	h.counts[e][s]++
	h.total++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for e := range o.counts {
		for s, n := range o.counts[e] {
			h.counts[e][s] += n
		}
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if h.min < 0 || (o.min >= 0 && o.min < h.min) {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Sum returns the exact sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the q-quantile (q in [0,1]) as a representative bucket
// value, clamped to the exact observed extremes so Quantile(0) == Min and
// Quantile(1) == Max. Empty histograms report 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum int64
	for e := range h.counts {
		for s, n := range h.counts[e] {
			cum += n
			if cum >= rank {
				v := value(e, s)
				if v > h.max {
					v = h.max
				}
				if v < h.Min() {
					v = h.Min()
				}
				return v
			}
		}
	}
	return h.max
}
