package controller

import (
	"testing"

	"dynctrl/internal/tree"
)

// BenchmarkRejectWave floods the reject wave over a star of 25 000 nodes:
// one visit of every live id and one flag set in each store, with no list of
// the ids built on the way (0 allocs/op).
func BenchmarkRejectWave(b *testing.B) {
	tr, root := tree.New()
	for i := 1; i < 25_000; i++ {
		if _, err := tr.ApplyAddLeaf(root); err != nil {
			b.Fatal(err)
		}
	}
	c := NewCore(tr, 50_000, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.rejectWave = false
		c.broadcastRejectWave()
	}
}
