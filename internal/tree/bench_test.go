package tree

import (
	"fmt"
	"sort"
	"testing"
)

// BenchmarkTreeAddLeaf adds leaves under a parent that already has the named
// number of children (between degree and 2·degree: the parent is replaced,
// off the clock, when it has doubled). Linking draws no port and reads none
// of the parent's, so ns/op does not grow with the degree, and a leaf costs
// no allocation of its own: its node is an entry of the node table, and what
// is left is the amortised growth of the parent's child list, of the parent
// and depth slices and of the table's chunks (0 allocs/op at every degree).
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

// BenchmarkTreeSplitEdge splits the edge above a node that heads a subtree of
// the named size and removes the new node again: the two changes that move a
// subtree one level down or up and recompute its depths, over a stack the
// tree keeps: what is left is the new node's two child lists (2 allocs/op at
// every size, where a stack per call made it 4 and 64 KiB at 4 096).
func BenchmarkTreeSplitEdge(b *testing.B) {
	for _, size := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("subtree=%d", size), func(b *testing.B) {
			tr, root := New()
			head := mustAddLeaf(b, tr, root)
			for i := 1; i < size; i++ {
				mustAddLeaf(b, tr, head)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := tr.ApplyAddInternal(head)
				if err != nil {
					b.Fatal(err)
				}
				if err := tr.ApplyRemoveInternal(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeClimb walks a path of 8 192 nodes from the tip to the root
// the ways the engines' filler searches do: one Parent call a hop (the
// message-passing core, whose hops are separate deliveries), hence one
// liveness test and one slice index per hop; one Climb over the whole path,
// the visitor called at every node; one ClimbMarked hop by hop over a mark
// slice as sparse as the level masks are, one node in 64 marked, so a hop is
// two loads and the visitor runs 128 times; the same climb with the block
// rows passed (the centralized core), which walks the block of every fourth
// stop, where the mark is, and takes the express link past the other three;
// and the same marks banded as the filler test bands them, each for a band
// the climb does not pass its node in, so the rows let it take every link
// and it visits nothing. ns/hop is per edge of the path in every row, climbed
// or jumped.
func BenchmarkTreeClimb(b *testing.B) {
	const n = 8192
	tr, tip := New()
	for i := 1; i < n; i++ {
		tip = mustAddLeaf(b, tr, tip)
	}
	run := func(name string, climb func() int) {
		b.Run(fmt.Sprintf("%s-%d", name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if hops := climb(); hops != n {
					b.Fatalf("climbed %d hops, want %d", hops, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/hop")
		})
	}
	run("path", func() int {
		hops := 0
		for w := tip; w != InvalidNode; hops++ {
			var err error
			if w, err = tr.Parent(w); err != nil {
				b.Fatal(err)
			}
		}
		return hops
	})
	run("climb", func() int {
		hops := 0
		if _, _, err := tr.Climb(tip, func(NodeID, int) bool { hops++; return false }); err != nil {
			b.Fatal(err)
		}
		return hops
	})
	// The bands of the filler test at ψ = 32: 64, 128, ..., 4 096 and beyond.
	var bands []int
	for end := 64; end <= n/2; end *= 2 {
		bands = append(bands, end)
	}
	marks, banded := make([]uint32, n+1), make([]uint32, n+1)
	for id := 64; id <= n; id += 64 {
		marks[id] = 1
	}
	// Id k is at depth k-1 and n-k hops from the tip, so these marks are 56
	// hops past a multiple of 64, in a block that lies in one band, and each
	// is for the band next to its own.
	for id := 72; id <= n; id += 64 {
		banded[id] = 1 << (sort.SearchInts(bands, n-id) ^ 1)
	}
	for _, row := range []struct {
		name   string
		bands  []int
		marks  []uint32
		blocks []uint64
		visits int
	}{
		{"marked", nil, marks, nil, n / 64},
		{"express", nil, marks, blockRows(tr, marks), n / 64},
		{"banded", bands, banded, blockRows(tr, banded), 0},
	} {
		run(row.name, func() int {
			visits := 0
			_, d, err := tr.ClimbMarked(tip, row.bands, row.marks, row.blocks, func(NodeID, int) bool { visits++; return false })
			if err != nil || visits != row.visits {
				b.Fatalf("visited %d marked nodes (%v), want %d", visits, err, row.visits)
			}
			return d + 1
		})
	}
}

// intervalsSink keeps BenchmarkIntervals' result alive.
var intervalsSink [][2]int32

// BenchmarkIntervals numbers a balanced tree by one preorder walk. What it
// allocates is the slice indexed by id that it returns, 8 B for every id
// ever issued, live or not, and the walk's stack of ids. The shrunk case
// is the slice's worst: a balanced tree of 2^16 nodes cut back, leaves
// first, to 2^12, so fifteen entries in sixteen are dead ids.
func BenchmarkIntervals(b *testing.B) {
	for _, c := range []struct{ ids, live int }{{1 << 12, 1 << 12}, {1 << 16, 1 << 16}, {1 << 16, 1 << 12}} {
		name := fmt.Sprintf("nodes=%d", c.live)
		if c.ids != c.live {
			name = fmt.Sprintf("ids=%d/live=%d", c.ids, c.live)
		}
		b.Run(name, func(b *testing.B) {
			tr, _ := New()
			if err := Build(tr, Shape{Kind: "balanced", Nodes: c.ids}, 1); err != nil {
				b.Fatal(err)
			}
			for id := NodeID(tr.EverExisted()); tr.Size() > c.live; id-- {
				if tr.IsLeaf(id) {
					if err := tr.ApplyRemoveLeaf(id); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				intervalsSink = tr.Intervals()
			}
		})
	}
}
