package tree

import (
	"slices"
	"testing"
	"time"
)

// An add-leaf under a hub costs the same at any degree: linking a child
// scans none of the hub's. Blocks of 32 adds under a hub from its 2^15-th
// child on alternate with blocks under a fresh hub from its 2^5-th child on,
// in one tree, so both see the same tree size and the same load; the median
// of 31 high blocks is held to twice that of the low ones.
func TestStarAddLeafCostIsFlat(t *testing.T) {
	const low, high, blocks, block = 1 << 5, 1 << 15, 31, 32
	tr, root := New()
	grow := func(hub NodeID, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := tr.ApplyAddLeaf(hub); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	big := mustAddLeaf(t, tr, root)
	grow(big, high)
	atLow, atHigh := make([]time.Duration, blocks), make([]time.Duration, blocks)
	for b := range blocks {
		small := mustAddLeaf(t, tr, root)
		grow(small, low)
		atLow[b] = grow(small, block)
		atHigh[b] = grow(big, block)
	}
	slices.Sort(atLow)
	slices.Sort(atHigh)
	lo, hi := atLow[blocks/2], atHigh[blocks/2]
	t.Logf("median of %d adds: %v from child %d on, %v from child %d on", block, lo, low, hi, high)
	if hi > 2*lo {
		t.Fatalf("a block of %d adds under a hub took %v from child %d on, more than twice the %v from child %d on",
			block, hi, high, lo, low)
	}
}
