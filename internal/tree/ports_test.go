package tree

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// portsDistinct checks the paper's one rule for ports: at every vertex the
// port toward the parent and the ports toward the children are distinct.
func portsDistinct(tr *Tree) error {
	for id := range tr.All() {
		ports := map[int]NodeID{}
		if up, err := tr.ParentPort(id); err == nil {
			ports[up] = id
		}
		kids, _ := tr.Children(id)
		for _, k := range kids {
			down, err := tr.ChildPort(id, k)
			if err != nil {
				return fmt.Errorf("child port %d->%d: %v", id, k, err)
			}
			if other, dup := ports[down]; dup {
				return fmt.Errorf("node %d: port %d leads to %d and to %d", id, down, other, k)
			}
			ports[down] = k
		}
	}
	return nil
}

// π maps every block [2^j, 2^(j+1)) of ids onto itself one to one, for
// every j up to 20: so ids that differ have ports that differ, and a port
// has one bit more than its id.
func TestPermuteIsABijectionOnEveryBlock(t *testing.T) {
	const top = 20
	seen := make([]uint64, 1<<(top+1)/64)
	for c := NodeID(1); c < 1<<(top+1); c++ {
		p := permute(c)
		lo := uint64(1) << (bits.Len64(uint64(c)) - 1)
		if p < lo || p >= 2*lo {
			t.Fatalf("π(%d) = %d, outside [%d, %d)", c, p, lo, 2*lo)
		}
		if seen[p/64]&(1<<(p%64)) != 0 {
			t.Fatalf("π(%d) = %d, the image of an earlier id", c, p)
		}
		seen[p/64] |= 1 << (p % 64)
	}
}

// A tree restored from a snapshot and grown on links the ports the tree it
// was taken from links: ports follow from the edge, not from a draw whose
// position no snapshot carries.
func TestRestoredTreeLinksTheUninterruptedPorts(t *testing.T) {
	const before, after = 10, 5
	uninterrupted, root := New()
	for i := 0; i < before+after; i++ {
		if _, err := uninterrupted.ApplyAddLeaf(root); err != nil {
			t.Fatal(err)
		}
	}
	crashed, root := New()
	for i := 0; i < before; i++ {
		if _, err := crashed.ApplyAddLeaf(root); err != nil {
			t.Fatal(err)
		}
	}
	restored, _ := New()
	if err := restored.Restore(crashed.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < after; i++ {
		if _, err := restored.ApplyAddLeaf(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range uninterrupted.Nodes()[1:] {
		want, err := uninterrupted.ParentPort(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := restored.ParentPort(id); err != nil || got != want {
			t.Errorf("node %d: parent port %d (%v) after the restore, %d uninterrupted", id, got, err, want)
		}
		want, _ = uninterrupted.ChildPort(root, id)
		if got, err := restored.ChildPort(root, id); err != nil || got != want {
			t.Errorf("node %d: port at the root %d (%v) after the restore, %d uninterrupted", id, got, err, want)
		}
	}
}

// An add-leaf under a hub costs the same at any degree: linking a child
// neither draws a port nor scans the hub's. Blocks of 32 adds under a hub
// from its 2^15-th child on alternate with blocks under a fresh hub from its
// 2^5-th child on, in one tree, so both see the same tree size and the same
// load; the median of 31 high blocks is held to twice that of the low ones.
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
