package hdr

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// The representative value of a sample's bucket must be within the
	// configured relative error (1/subCount) of the sample itself.
	for _, v := range []int64{0, 1, 5, 63, 64, 65, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		e, s := bucket(v)
		rep := value(e, s)
		diff := rep - v
		if diff < 0 {
			diff = -diff
		}
		bound := v/subCount + 1
		if diff > bound {
			t.Errorf("value %d: representative %d off by %d (> %d)", v, rep, diff, bound)
		}
	}
}

func TestQuantilesAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform-ish spread over 1ns..10s, the realistic latency range.
		v := int64(1) << uint(rng.Intn(34))
		v += rng.Int63n(v + 1)
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		// Within the log-linear quantization error of the exact value.
		lo := exact - exact/16 - 1
		hi := exact + exact/16 + 1
		if got < lo || got > hi {
			t.Errorf("q=%v: histogram %d, exact %d (allowed [%d,%d])", q, got, exact, lo, hi)
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Errorf("count %d, want %d", h.Count(), len(samples))
	}
	if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Errorf("min/max %d/%d, want %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
	}
}

func TestEmptyAndClamp(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamped to 0
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
}
