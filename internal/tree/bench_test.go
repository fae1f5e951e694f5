package tree

import (
	"fmt"
	"testing"
)

// BenchmarkTreeAddLeaf adds leaves under a parent that already has the named
// number of children (between degree and 2·degree: the parent is replaced,
// off the clock, when it has doubled). Linking tests the new port against
// the ports in use at the parent in place, so ns/op may grow with the degree
// by that scan and nothing else, and a leaf costs its node plus the amortised
// growth of three slices: at most 2 allocs/op.
func BenchmarkTreeAddLeaf(b *testing.B) {
	for _, degree := range []int{16, 128, 2048} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			tr, root := New()
			freshParent := func() NodeID {
				parent := mustAddLeaf(b, tr, root)
				for i := 0; i < degree; i++ {
					mustAddLeaf(b, tr, parent)
				}
				return parent
			}
			parent := freshParent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%degree == 0 {
					b.StopTimer()
					parent = freshParent()
					b.StartTimer()
				}
				if _, err := tr.ApplyAddLeaf(parent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeClimb walks a path of 8 192 nodes from the tip to the root
// the way the engines' filler search does: one Parent call, hence one lock
// acquisition and one slice index, per hop.
func BenchmarkTreeClimb(b *testing.B) {
	const n = 8192
	b.Run(fmt.Sprintf("path-%d", n), func(b *testing.B) {
		tr, at := New()
		for i := 1; i < n; i++ {
			at = mustAddLeaf(b, tr, at)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hops := 0
			for w := at; w != InvalidNode; hops++ {
				var err error
				if w, err = tr.Parent(w); err != nil {
					b.Fatal(err)
				}
			}
			if hops != n {
				b.Fatalf("climbed %d hops, want %d", hops, n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/hop")
	})
}
