package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustAddLeaf(t testing.TB, tr *Tree, parent NodeID) NodeID {
	t.Helper()
	id, err := tr.ApplyAddLeaf(parent)
	if err != nil {
		t.Fatalf("ApplyAddLeaf(%d): %v", parent, err)
	}
	return id
}

func TestNewTree(t *testing.T) {
	tr, root := New()
	if got := tr.Size(); got != 1 {
		t.Fatalf("Size() = %d, want 1", got)
	}
	if got := tr.Root(); got != root {
		t.Fatalf("Root() = %d, want %d", got, root)
	}
	if !tr.IsLeaf(root) {
		t.Fatal("fresh root should be a leaf")
	}
	d, err := tr.Depth(root)
	if err != nil || d != 0 {
		t.Fatalf("Depth(root) = %d, %v; want 0, nil", d, err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddLeaf(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)

	if got := tr.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	p, err := tr.Parent(b)
	if err != nil || p != a {
		t.Fatalf("Parent(b) = %d, %v; want %d", p, err, a)
	}
	d, err := tr.Depth(b)
	if err != nil || d != 2 {
		t.Fatalf("Depth(b) = %d, %v; want 2", d, err)
	}
	if _, err := tr.ApplyAddLeaf(NodeID(999)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("AddLeaf under missing node: err = %v, want ErrNoSuchNode", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRemoveLeaf(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)

	if err := tr.ApplyRemoveLeaf(a); !errors.Is(err, ErrNotLeaf) {
		t.Fatalf("removing internal node as leaf: err = %v, want ErrNotLeaf", err)
	}
	if err := tr.ApplyRemoveLeaf(root); err == nil {
		t.Fatal("removing root should fail")
	}
	if err := tr.ApplyRemoveLeaf(b); err != nil {
		t.Fatalf("ApplyRemoveLeaf(b): %v", err)
	}
	if tr.Contains(b) {
		t.Fatal("b should be gone")
	}
	if !tr.WasDeleted(b) {
		t.Fatal("b should be recorded as deleted")
	}
	if !tr.IsLeaf(a) {
		t.Fatal("a should be a leaf again")
	}
	if err := tr.ApplyRemoveLeaf(b); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("double remove: err = %v, want ErrNoSuchNode", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddInternal(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)

	u, err := tr.ApplyAddInternal(b)
	if err != nil {
		t.Fatalf("ApplyAddInternal(b): %v", err)
	}
	// Now root -> a -> u -> b.
	p, _ := tr.Parent(b)
	if p != u {
		t.Fatalf("Parent(b) = %d, want %d", p, u)
	}
	p, _ = tr.Parent(u)
	if p != a {
		t.Fatalf("Parent(u) = %d, want %d", p, a)
	}
	d, _ := tr.Depth(b)
	if d != 3 {
		t.Fatalf("Depth(b) = %d, want 3", d)
	}
	if _, err := tr.ApplyAddInternal(root); err == nil {
		t.Fatal("splitting above root should fail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRemoveInternal(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)
	c := mustAddLeaf(t, tr, a)

	if err := tr.ApplyRemoveInternal(b); !errors.Is(err, ErrNotInternal) {
		t.Fatalf("removing leaf as internal: err = %v, want ErrNotInternal", err)
	}
	if err := tr.ApplyRemoveInternal(a); err != nil {
		t.Fatalf("ApplyRemoveInternal(a): %v", err)
	}
	// b and c become children of root.
	for _, id := range []NodeID{b, c} {
		p, err := tr.Parent(id)
		if err != nil || p != root {
			t.Fatalf("Parent(%d) = %d, %v; want root %d", id, p, err, root)
		}
		d, _ := tr.Depth(id)
		if d != 1 {
			t.Fatalf("Depth(%d) = %d, want 1", id, d)
		}
	}
	if err := tr.ApplyRemoveInternal(root); err == nil {
		t.Fatal("removing root should fail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRemoveInternalDeepSubtreeDepths(t *testing.T) {
	// root -> a -> b -> c -> d; removing a must shift b, c, d up by one.
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)
	c := mustAddLeaf(t, tr, b)
	d := mustAddLeaf(t, tr, c)

	if err := tr.ApplyRemoveInternal(a); err != nil {
		t.Fatalf("ApplyRemoveInternal: %v", err)
	}
	wants := map[NodeID]int{b: 1, c: 2, d: 3}
	for id, want := range wants {
		got, err := tr.Depth(id)
		if err != nil || got != want {
			t.Fatalf("Depth(%d) = %d, %v; want %d", id, got, err, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDistanceAndAncestor(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)
	c := mustAddLeaf(t, tr, b)
	sib := mustAddLeaf(t, tr, a)

	tests := []struct {
		name    string
		u, w    NodeID
		want    int
		wantErr bool
	}{
		{"self", c, c, 0, false},
		{"one hop", c, b, 1, false},
		{"to root", c, root, 3, false},
		{"not ancestor", c, sib, 0, true},
		{"inverted", root, c, 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tr.Distance(tc.u, tc.w)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Distance(%d,%d) = %d, want error", tc.u, tc.w, got)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("Distance(%d,%d) = %d, %v; want %d", tc.u, tc.w, got, err, tc.want)
			}
		})
	}

	anc, err := tr.Ancestor(c, 2)
	if err != nil || anc != a {
		t.Fatalf("Ancestor(c,2) = %d, %v; want %d", anc, err, a)
	}
	if _, err := tr.Ancestor(c, 99); err == nil {
		t.Fatal("Ancestor beyond root should fail")
	}
	ok, err := tr.IsAncestor(a, c)
	if err != nil || !ok {
		t.Fatalf("IsAncestor(a,c) = %v, %v; want true", ok, err)
	}
	ok, _ = tr.IsAncestor(sib, c)
	if ok {
		t.Fatal("IsAncestor(sib,c) should be false")
	}
	ok, _ = tr.IsAncestor(c, c)
	if !ok {
		t.Fatal("a node is its own ancestor")
	}
}

func TestPathHelpers(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)

	path, err := tr.PathToRoot(b)
	if err != nil {
		t.Fatalf("PathToRoot: %v", err)
	}
	want := []NodeID{b, a, root}
	if len(path) != len(want) {
		t.Fatalf("PathToRoot = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathToRoot[%d] = %d, want %d", i, path[i], want[i])
		}
	}
	seg, err := tr.PathBetween(b, a)
	if err != nil || len(seg) != 2 || seg[0] != b || seg[1] != a {
		t.Fatalf("PathBetween(b,a) = %v, %v; want [b a]", seg, err)
	}
}

// TestClimb: the climb visits u and then each ancestor once with its hop
// distance, stops where the visitor says so or at the root, and agrees with
// the Parent loop it replaces — also after the path under it was re-linked.
func TestClimb(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)
	mid, err := tr.ApplyAddInternal(b) // root - a - mid - b
	if err != nil {
		t.Fatal(err)
	}
	sib := mustAddLeaf(t, tr, a)

	climb := func(u, stopAt NodeID) (seen []visit, at NodeID, dist int) {
		t.Helper()
		at, dist, err := tr.Climb(u, func(id NodeID, d int) bool {
			seen = append(seen, visit{id, d})
			return id == stopAt
		})
		if err != nil {
			t.Fatalf("Climb(%d): %v", u, err)
		}
		return seen, at, dist
	}
	for _, tc := range []struct {
		u, stopAt NodeID
		want      []NodeID
	}{
		{b, InvalidNode, []NodeID{b, mid, a, root}}, // never stopped: ends at the root
		{b, mid, []NodeID{b, mid}},
		{b, b, []NodeID{b}},
		{sib, root, []NodeID{sib, a, root}},
		{root, InvalidNode, []NodeID{root}},
	} {
		seen, at, dist := climb(tc.u, tc.stopAt)
		if len(seen) != len(tc.want) {
			t.Fatalf("Climb(%d) visited %v, want %v", tc.u, seen, tc.want)
		}
		for i, id := range tc.want {
			if seen[i] != (visit{id, i}) {
				t.Fatalf("Climb(%d) visit %d = %+v, want {%d %d}", tc.u, i, seen[i], id, i)
			}
		}
		if last := len(tc.want) - 1; at != tc.want[last] || dist != last {
			t.Fatalf("Climb(%d) stopped at %d after %d hops, want %d after %d", tc.u, at, dist, tc.want[last], last)
		}
	}
	if _, _, err := tr.Climb(99, func(NodeID, int) bool { t.Fatal("visited an unknown node"); return true }); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("Climb(unknown) err = %v, want ErrNoSuchNode", err)
	}

	// The marked climb from b (root - a - mid - b): the visitor sees the
	// marked nodes only, with their true distances, and the climb ends where
	// it says so or at the root. Under nil bands every distance is in band 0,
	// so bit 0 marks a node; under the bands {1} the distances 0 and 1 are
	// band 0 and the farther ones band 1.
	marks := func(bits uint64, ids ...NodeID) []uint64 {
		m := make([]uint64, tr.EverExisted()+1)
		for _, id := range ids {
			m[id] = bits
		}
		return m
	}
	for _, tc := range []struct {
		name   string
		bands  []int
		marks  []uint64
		stopAt NodeID
		want   []visit
		at     NodeID
		dist   int
	}{
		{"no mark set", nil, marks(1), InvalidNode, nil, root, 3},
		{"nil marks", nil, nil, InvalidNode, nil, root, 3},
		{"mark on u itself", nil, marks(1, b), b, []visit{{b, 0}}, b, 0},
		{"mark on u, not taken", nil, marks(1, b), InvalidNode, []visit{{b, 0}}, root, 3},
		{"unmarked skipped", nil, marks(1, a, sib), a, []visit{{a, 2}}, a, 2},
		{"first taken wins", nil, marks(1, mid, a, root), a, []visit{{mid, 1}, {a, 2}}, a, 2},
		{"marked root", nil, marks(1, root), root, []visit{{root, 3}}, root, 3},
		// mid was created after b: a slice that stops short of its id leaves
		// it unmarked, and the climb passes it on the way to a.
		{"marks shorter than the id space", nil, marks(1, a, mid, b)[:mid], InvalidNode, []visit{{b, 0}, {a, 2}}, root, 3},
		{"bits of other bands", nil, marks(1<<1|1<<63, a, mid, b, root), InvalidNode, nil, root, 3},
		{"band 0 then band 1", []int{1}, marks(1, a, mid, b, root), InvalidNode, []visit{{b, 0}, {mid, 1}}, root, 3},
		{"band 1 only", []int{1}, marks(1<<1, a, mid, b, root), root, []visit{{a, 2}, {root, 3}}, root, 3},
		{"beyond the last bound", []int{0, 1}, marks(1<<2, a, mid, b, root), InvalidNode, []visit{{a, 2}, {root, 3}}, root, 3},
	} {
		// Hop by hop, then with the block rows: every node here hangs off
		// the root, so a climb with no mark ahead is one jump.
		for _, blocks := range [][]uint64{nil, blockRows(tr, tc.marks)} {
			var seen []visit
			at, dist, err := tr.ClimbMarked(b, tc.bands, tc.marks, blocks, func(id NodeID, d int) bool {
				seen = append(seen, visit{id, d})
				return id == tc.stopAt
			})
			if err != nil || at != tc.at || dist != tc.dist || !reflect.DeepEqual(seen, tc.want) {
				t.Fatalf("%s (blocks %x): ClimbMarked(%d) visited %v and ended at %d after %d hops (%v), want %v ending at %d after %d",
					tc.name, blocks, b, seen, at, dist, err, tc.want, tc.at, tc.dist)
			}
		}
	}
	if mid <= b || mid <= a {
		t.Fatalf("ids a=%d b=%d mid=%d: the short-marks case needs mid to be the largest", a, b, mid)
	}
	if _, _, err := tr.ClimbMarked(99, nil, marks(1), nil, func(NodeID, int) bool { return true }); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("ClimbMarked(unknown) err = %v, want ErrNoSuchNode", err)
	}
}

// visit is one call of a climb's visitor.
type visit struct {
	id   NodeID
	dist int
}

// blockRows counts, for every express stop, the ids whose link it is in the
// row ClimbMarked reads: byte b counts the marks with bit b, the top byte
// those with any bit from 7 on, and a byte that reaches 255 stays there. It
// is what a caller of ClimbMarked keeps beside its marks.
func blockRows(tr *Tree, marks []uint64) []uint64 {
	rows := make([]uint64, tr.EverExisted()+1)
	for id, m := range marks {
		r := tr.Express(NodeID(id))
		for lane := 0; lane < 8; lane++ {
			in := m>>lane&1 != 0
			if lane == 7 {
				in = m>>7 != 0
			}
			if in && uint8(rows[r]>>(8*lane)) != 0xff {
				rows[r] += 1 << (8 * lane)
			}
		}
	}
	return rows
}

// bandBit is the mark bit of the band distance d lies in, found by a search
// of its own: the first bound at or above d.
func bandBit(bands []int, d int) uint64 {
	return 1 << min(sort.SearchInts(bands, d), 63)
}

// TestClimbMarkedSkipsMarksOfOtherBands is a path of eight strides whose
// every block holds one mark, of a band the climb from the tip does not pass
// that block in. The rows count those marks, so a climb that reads a row as
// one number, some mark below this stop, walks every block; the banded climb
// must take every express link and visit nothing. Every node between two
// stops carries a second mark, in the band it does lie in, that the rows do
// not count: a tripwire that only a climb standing on the node can see, so a
// visit shows a hop where there should have been a link.
func TestClimbMarkedSkipsMarksOfOtherBands(t *testing.T) {
	const n = 8 * expressStride
	tr, tip := New()
	for i := 0; i < n; i++ {
		tip = mustAddLeaf(t, tr, tip)
	}
	// Bounds on stops, so that every block lies in one band: 0..48, 49..96
	// and beyond.
	bands := []int{3 * expressStride, 6 * expressStride}
	marks := make([]uint64, tr.EverExisted()+1)
	counted := make([]uint64, len(marks))
	for u, d := tip, 0; u != tr.Root(); u, d = tr.parent[u], d+1 {
		if d%expressStride == 0 {
			continue // a stop, or the tip: the climb stands there anyway
		}
		band := sort.SearchInts(bands, d)
		marks[u] = 1 << band // the tripwire
		if d%expressStride == expressStride/2 {
			other := uint64(1) << ((band + 1) % 3)
			marks[u] |= other
			counted[u] = other
		}
	}
	rows := blockRows(tr, counted)
	for r := range tr.All() {
		if r != tip && tr.depth[r]%expressStride == 0 && rows[r] == 0 {
			t.Fatalf("the block of stop %d counts no mark", r)
		}
	}
	visits := 0
	at, dist, err := tr.ClimbMarked(tip, bands, marks, rows, func(NodeID, int) bool { visits++; return false })
	if err != nil || at != tr.Root() || dist != n || visits != 0 {
		t.Fatalf("ClimbMarked from the tip visited %d nodes and ended at %d after %d hops (%v), want no visit, the root and %d hops",
			visits, at, dist, err, n)
	}
	// Hop by hop, every tripwire is a visit, and none of the counted marks
	// is: they are for other bands.
	if _, _, err := tr.ClimbMarked(tip, bands, marks, nil, func(NodeID, int) bool { visits++; return false }); err != nil || visits != n-n/expressStride {
		t.Fatalf("hop by hop the climb visited %d nodes (%v), want the %d tripwires", visits, err, n-n/expressStride)
	}
}

// TestClimbMarkedJumpsWhereBlocksAreClean holds the climb over the express
// links to a hop-by-hop Climb that visits the nodes whose mark has the bit of
// their distance's band, from every node of a path of five strides with a
// bushy random tree grown and churned on it, under marks of four densities
// and two sets of bands: same visits at the same distances, same end. The
// bands are one band of every distance, or ten bands, some narrower than a
// block, with marks on bits 0 to 9, so a stretch spans up to three bands and
// the top counter of a row counts three. Beside the exact rows it runs rows
// that count too high, which may only cost hops, rows with counters stuck at
// 255 whatever they count, and the exact ones cut off behind the last stop
// that counts a mark, which is as much as a caller need keep; the densest
// marks saturate a counter of the exact rows as well.
func TestClimbMarkedJumpsWhereBlocksAreClean(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr := randomScenario(seed, 300)
		tip := tr.Root()
		for i := 0; i < 5*expressStride+3; i++ {
			tip = mustAddLeaf(t, tr, tip)
		}
		// A fan of 255 leaves in the block of the root, which the densest
		// marks saturate.
		for i := 0; i < 255; i++ {
			mustAddLeaf(t, tr, tr.Root())
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			nodes := tr.Nodes()
			mustAddLeaf(t, tr, nodes[rng.Intn(len(nodes))])
			if id := nodes[rng.Intn(len(nodes))]; id != tr.Root() && i%3 == 0 {
				if _, err := tr.ApplyAddInternal(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, bands := range [][]int{nil, {2, 5, 6, 20, 30, 31, 45, 60, 75}} {
			saturated := false
			for _, oneIn := range []int{1, 2, 24, 1 << 20} {
				marks := make([]uint64, tr.EverExisted()+1)
				for id := range marks {
					switch {
					case oneIn == 1:
						marks[id] = 1 | 1<<rng.Intn(10)
					case rng.Intn(oneIn) == 0:
						marks[id] = 1 << rng.Intn(10)
					}
				}
				exact := blockRows(tr, marks)
				loose, stuck := slices.Clone(exact), slices.Clone(exact)
				for r := range loose {
					lane := 8 * rng.Intn(8)
					if uint8(loose[r]>>lane) < 0xff {
						loose[r] += uint64(rng.Intn(2)) << lane
					}
					if rng.Intn(3) == 0 {
						stuck[r] |= 0xff << lane
					}
				}
				short := exact[:0]
				for r, row := range exact {
					if row != 0 {
						short = exact[:r+1]
					}
					for lane := 0; lane < 64; lane += 8 {
						saturated = saturated || uint8(row>>lane) == 0xff
					}
				}
				jumped := false
				for u := range tr.All() {
					stopAfter := rng.Intn(4)
					visitor := func(seen *[]visit) func(NodeID, int) bool {
						return func(id NodeID, d int) bool {
							*seen = append(*seen, visit{id, d})
							return len(*seen) > stopAfter
						}
					}
					var want []visit
					wantVisit := visitor(&want)
					wantAt, wantDist, err := tr.Climb(u, func(id NodeID, d int) bool {
						return marks[id]&bandBit(bands, d) != 0 && wantVisit(id, d)
					})
					if err != nil {
						t.Fatal(err)
					}
					for name, blocks := range map[string][]uint64{"no": nil, "exact": exact, "loose": loose, "stuck": stuck, "short": short} {
						var got []visit
						at, dist, err := tr.ClimbMarked(u, bands, marks, blocks, visitor(&got))
						if err != nil || at != wantAt || dist != wantDist || !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d, bands %v, one mark in %d, %s rows: ClimbMarked(%d) visited %v and ended at %d after %d hops (%v), the banded Climb visits %v and ends at %d after %d",
								seed, bands, oneIn, name, u, got, at, dist, err, want, wantAt, wantDist)
						}
					}
					jumped = jumped || exact[tr.Express(u)] == 0 && tr.depth[u]-tr.depth[tr.Express(u)] > 1
				}
				if !jumped && oneIn > 2 {
					t.Fatalf("seed %d, bands %v, one mark in %d: no climb starts below a clean block of two hops or more", seed, bands, oneIn)
				}
			}
			if !saturated {
				t.Fatalf("seed %d, bands %v: no counter of the exact rows reached 255", seed, bands)
			}
		}
	}
}

// TestAppendAncestors checks the one-walk lookup against Ancestor, distance
// for distance, and that it refuses what Ancestor refuses.
func TestAppendAncestors(t *testing.T) {
	tr, tip := New()
	for i := 0; i < 40; i++ {
		tip = mustAddLeaf(t, tr, tip)
	}
	side := mustAddLeaf(t, tr, tr.Root())
	for _, dists := range [][]int{nil, {0}, {40}, {0, 0, 3, 3, 17, 40}, {6, 12, 24}} {
		buf := []NodeID{side}
		got, err := tr.AppendAncestors(tip, dists, buf)
		if err != nil || len(got) != 1+len(dists) || got[0] != side {
			t.Fatalf("AppendAncestors(%v) = %v, %v", dists, got, err)
		}
		for i, d := range dists {
			if want, _ := tr.Ancestor(tip, d); got[1+i] != want {
				t.Fatalf("AppendAncestors(%v)[%d] = %d, Ancestor says %d", dists, i, got[1+i], want)
			}
		}
	}
	for _, dists := range [][]int{{41}, {3, 41}, {-1}, {5, 4}} {
		if got, err := tr.AppendAncestors(tip, dists, nil); !errors.Is(err, ErrNotRelated) {
			t.Fatalf("AppendAncestors(%v) = %v, %v, want ErrNotRelated", dists, got, err)
		}
	}
	if _, err := tr.AppendAncestors(99, []int{0}, nil); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("AppendAncestors(unknown) err = %v, want ErrNoSuchNode", err)
	}
}

// TestGeneration pins what a holder of derived state relies on: the count
// moves on every applied change and on a Restore, which Changes alone does
// not show, and on nothing else.
func TestGeneration(t *testing.T) {
	tr, root := New()
	at := tr.Generation()
	moved := func(what string, want bool) {
		t.Helper()
		if got := tr.Generation(); (got != at) != want {
			t.Fatalf("%s: generation %d -> %d, want moved = %v", what, at, got, want)
		}
		at = tr.Generation()
	}
	leaf := mustAddLeaf(t, tr, root)
	moved("add leaf", true)
	if err := tr.ApplyRemoveLeaf(root); err == nil {
		t.Fatal("removed the root")
	}
	tr.Nodes()
	moved("refused change and a read", false)
	snap := tr.Snapshot()
	if err := tr.ApplyRemoveLeaf(leaf); err != nil {
		t.Fatal(err)
	}
	moved("remove leaf", true)
	if err := tr.Restore(snap); err != nil {
		t.Fatal(err)
	}
	moved("restore", true)
	snap.NextID++
	if err := tr.Restore(snap); err == nil {
		t.Fatal("restored a corrupt snapshot")
	}
	moved("refused restore", false)
}

func TestNCAAndTreeDistance(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, a)
	c := mustAddLeaf(t, tr, a)
	d := mustAddLeaf(t, tr, c)

	nca, err := tr.NCA(b, d)
	if err != nil || nca != a {
		t.Fatalf("NCA(b,d) = %d, %v; want %d", nca, err, a)
	}
	dist, err := tr.TreeDistance(b, d)
	if err != nil || dist != 3 {
		t.Fatalf("TreeDistance(b,d) = %d, %v; want 3", dist, err)
	}
	nca, _ = tr.NCA(b, b)
	if nca != b {
		t.Fatalf("NCA(b,b) = %d, want %d", nca, b)
	}
}

func TestDFSNumbersAndIntervals(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, root)
	c := mustAddLeaf(t, tr, a)

	iv := tr.Intervals()
	nums := make(map[NodeID]int, len(iv))
	for id, p := range iv {
		if p[0] > 0 {
			nums[NodeID(id)] = int(p[0])
		}
	}
	if len(nums) != 4 {
		t.Fatalf("DFSNumbers has %d entries, want 4", len(nums))
	}
	if nums[root] != 1 {
		t.Fatalf("root DFS number = %d, want 1", nums[root])
	}
	// a inserted before b, so a's subtree is visited first.
	if nums[a] != 2 || nums[c] != 3 || nums[b] != 4 {
		t.Fatalf("DFS numbers = a:%d c:%d b:%d, want 2,3,4", nums[a], nums[c], nums[b])
	}

	contains := func(outer, inner [2]int32) bool {
		return outer[0] <= inner[0] && inner[1] <= outer[1]
	}
	if !contains(iv[root], iv[b]) || !contains(iv[a], iv[c]) {
		t.Fatalf("intervals do not nest: %v", iv)
	}
	if contains(iv[a], iv[b]) || contains(iv[b], iv[a]) {
		t.Fatal("sibling intervals must be disjoint")
	}
}

func TestSubtreeSizeAndHeight(t *testing.T) {
	tr, root := New()
	a := mustAddLeaf(t, tr, root)
	mustAddLeaf(t, tr, a)
	mustAddLeaf(t, tr, a)

	size := func(id NodeID) int {
		n := 0
		for range tr.Subtree(id) {
			n++
		}
		return n
	}
	if n := size(a); n != 3 {
		t.Fatalf("SubtreeSize(a) = %d; want 3", n)
	}
	if n := size(root); n != 4 {
		t.Fatalf("SubtreeSize(root) = %d, want 4", n)
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("Height() = %d, want 2", h)
	}
}

// TestDeepest: a bare tree's deepest node is its root, and among the nodes
// at the deepest depth the smallest id wins, whichever joined the depth first
// or outlived the others.
func TestDeepest(t *testing.T) {
	tr, root := New()
	if got := tr.Deepest(); got != root {
		t.Fatalf("bare tree: Deepest() = %d, want the root %d", got, root)
	}
	a := mustAddLeaf(t, tr, root)
	b := mustAddLeaf(t, tr, root)
	if got := tr.Deepest(); got != a {
		t.Fatalf("two leaves %d and %d at depth 1: Deepest() = %d, want %d", a, b, got, a)
	}
	bb := mustAddLeaf(t, tr, b)
	if got := tr.Deepest(); got != bb {
		t.Fatalf("Deepest() = %d, want the only depth-2 node %d", got, bb)
	}
	// Splitting the edge above a pushes a to depth 2, where bb already is;
	// a is the smaller id.
	if _, err := tr.ApplyAddInternal(a); err != nil {
		t.Fatal(err)
	}
	if got := tr.Deepest(); got != a {
		t.Fatalf("a=%d and bb=%d at depth 2: Deepest() = %d, want %d", a, bb, got, a)
	}
	if err := tr.ApplyRemoveLeaf(a); err != nil {
		t.Fatal(err)
	}
	if got := tr.Deepest(); got != bb {
		t.Fatalf("after removing %d: Deepest() = %d, want %d", a, got, bb)
	}
}

// TestHeightFollowsDepths: Height reads per-depth counts the tree keeps
// beside depth, so after every change of a random trace of all four kinds,
// and after a Restore, it must equal the deepest cached depth. The traces
// open with a spine so that edge splits and internal removals move deep
// subtrees both ways, and removals take over late so the height also falls.
func TestHeightFollowsDepths(t *testing.T) {
	check := func(tr *Tree, seed int64, step int, what string) {
		t.Helper()
		if got, want := tr.Height(), int(slices.Max(tr.depth)); got != want {
			t.Fatalf("seed %d step %d (%s): Height %d, deepest depth %d", seed, step, what, got, want)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, root := New()
		check(tr, seed, 0, "new")
		for step := 1; step <= 600; step++ {
			nodes := tr.Nodes()
			id := nodes[rng.Intn(len(nodes))]
			op := rng.Intn(4)
			switch {
			case step <= 20:
				id, op = NodeID(tr.EverExisted()), 0
			case step > 300 && rng.Intn(2) == 0:
				op = 1 + 2*rng.Intn(2)
			}
			var err error
			switch {
			case op == 0:
				_, err = tr.ApplyAddLeaf(id)
			case op == 1 && id != root && tr.IsLeaf(id):
				err = tr.ApplyRemoveLeaf(id)
			case op == 2 && id != root:
				_, err = tr.ApplyAddInternal(id)
			case op == 3 && id != root && !tr.IsLeaf(id):
				err = tr.ApplyRemoveInternal(id)
			default:
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: op %d at %d: %v", seed, step, op, id, err)
			}
			check(tr, seed, step, fmt.Sprintf("op %d at %d", op, id))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Restored over a tree of another height, and then changed again.
		other, leaf := New()
		for range 40 {
			leaf = mustAddLeaf(t, other, leaf)
		}
		if err := other.Restore(tr.Snapshot()); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		check(other, seed, 600, "restore")
		mustAddLeaf(t, other, other.Deepest())
		check(other, seed, 601, "a leaf under the deepest node after restore")
	}
}

// TestObservers pins the two counts a watcher of the tree reads: Changes
// and Generation each advance by one per applied change, in order, and a
// Restore sets Changes to the snapshot's count while Generation still moves
// on.
func TestObservers(t *testing.T) {
	tr, root := New()
	step := uint64(0)
	counted := func(what string) {
		t.Helper()
		step++
		if c, g := tr.Changes(), tr.Generation(); c != step || g != step {
			t.Fatalf("after %s: Changes() = %d, Generation() = %d, want %d each", what, c, g, step)
		}
	}

	a := mustAddLeaf(t, tr, root)
	counted("add leaf")
	snap := tr.Snapshot()
	u, err := tr.ApplyAddInternal(a)
	if err != nil {
		t.Fatalf("ApplyAddInternal: %v", err)
	}
	counted("add internal")
	if err := tr.ApplyRemoveInternal(u); err != nil {
		t.Fatalf("ApplyRemoveInternal: %v", err)
	}
	counted("remove internal")
	if err := tr.ApplyRemoveLeaf(a); err != nil {
		t.Fatalf("ApplyRemoveLeaf: %v", err)
	}
	counted("remove leaf")

	if err := tr.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if c, g := tr.Changes(), tr.Generation(); c != 1 || g != step+1 {
		t.Fatalf("after Restore: Changes() = %d, Generation() = %d, want 1 and %d", c, g, step+1)
	}
}

func TestPortsDistinct(t *testing.T) {
	tr, root := New()
	hub := mustAddLeaf(t, tr, root)
	for i := 0; i < 50; i++ {
		mustAddLeaf(t, tr, hub)
	}
	if err := portsDistinct(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ParentPort(root); !errors.Is(err, ErrIsRoot) {
		t.Fatalf("ParentPort(root) = %v, want ErrIsRoot", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestEverExistedCountsDeleted(t *testing.T) {
	tr, root := New()
	ids := make([]NodeID, 0, 10)
	for i := 0; i < 10; i++ {
		ids = append(ids, mustAddLeaf(t, tr, root))
	}
	for _, id := range ids[:5] {
		if err := tr.ApplyRemoveLeaf(id); err != nil {
			t.Fatalf("remove: %v", err)
		}
	}
	if got := tr.EverExisted(); got != 11 {
		t.Fatalf("EverExisted() = %d, want 11", got)
	}
	if got := tr.Size(); got != 6 {
		t.Fatalf("Size() = %d, want 6", got)
	}
}

func TestChangeKindString(t *testing.T) {
	kinds := map[ChangeKind]string{
		None: "none", AddLeaf: "add-leaf", RemoveLeaf: "remove-leaf",
		AddInternal: "add-internal", RemoveInternal: "remove-internal",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if !AddLeaf.IsAddition() || !RemoveInternal.IsRemoval() || None.IsAddition() || AddLeaf.IsRemoval() {
		t.Fatal("kind predicates inconsistent")
	}
}

// randomScenario applies n random topological changes to a fresh tree and
// returns the tree.
func randomScenario(seed int64, n int) *Tree {
	rng := rand.New(rand.NewSource(seed))
	tr, root := New()
	live := []NodeID{root}
	for i := 0; i < n; i++ {
		switch op := rng.Intn(4); op {
		case 0: // add leaf
			parent := live[rng.Intn(len(live))]
			id, err := tr.ApplyAddLeaf(parent)
			if err == nil {
				live = append(live, id)
			}
		case 1: // remove leaf
			id := live[rng.Intn(len(live))]
			if id != root && tr.IsLeaf(id) {
				if err := tr.ApplyRemoveLeaf(id); err == nil {
					live = removeID(live, id)
				}
			}
		case 2: // add internal
			id := live[rng.Intn(len(live))]
			if id != root {
				nid, err := tr.ApplyAddInternal(id)
				if err == nil {
					live = append(live, nid)
				}
			}
		case 3: // remove internal
			id := live[rng.Intn(len(live))]
			if id != root && !tr.IsLeaf(id) {
				if err := tr.ApplyRemoveInternal(id); err == nil {
					live = removeID(live, id)
				}
			}
		}
	}
	return tr
}

func removeID(s []NodeID, id NodeID) []NodeID {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func TestRandomScenarioInvariants(t *testing.T) {
	// Property: any sequence of legal topological changes preserves
	// structural validity, and depth equals recomputed distance-to-root.
	prop := func(seed int64) bool {
		tr := randomScenario(seed, 300)
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		root := tr.Root()
		for _, id := range tr.Nodes() {
			d, err := tr.Depth(id)
			if err != nil {
				return false
			}
			d2, err := tr.Distance(id, root)
			if err != nil || d != d2 {
				t.Logf("seed %d: depth mismatch at %d: %d vs %d", seed, id, d, d2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomScenarioIntervalAncestry(t *testing.T) {
	// Property: DFS intervals characterize ancestry exactly.
	prop := func(seed int64) bool {
		tr := randomScenario(seed, 120)
		iv := tr.Intervals()
		nodes := tr.Nodes()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 50; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			anc, err := tr.IsAncestor(u, v)
			if err != nil {
				return false
			}
			byInterval := iv[u][0] <= iv[v][0] && iv[v][1] <= iv[u][1]
			if anc != byInterval {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLeavesConsistent(t *testing.T) {
	tr := randomScenario(42, 200)
	leafSet := make(map[NodeID]struct{})
	for _, id := range tr.Leaves() {
		leafSet[id] = struct{}{}
	}
	for _, id := range tr.Nodes() {
		kids, err := tr.Children(id)
		if err != nil {
			t.Fatalf("Children: %v", err)
		}
		_, isLeaf := leafSet[id]
		if (len(kids) == 0) != isLeaf {
			t.Fatalf("node %d leaf status inconsistent", id)
		}
	}
}
