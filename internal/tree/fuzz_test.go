package tree

import (
	"sort"
	"testing"
)

// FuzzTreeOps drives a random topological-change history (the four change
// kinds of Section 2.1) from the fuzzer's byte stream and then checks the
// structural invariants and the path/labeling round-trips:
//
//   - Validate: parent/child symmetry, depth cache, reachability.
//   - The ports at every vertex are distinct, and a Snapshot → Restore round
//     trip keeps every one.
//   - The dense parent and depth slices agree with the map model of
//     model_test.go, which replays the same history, after every operation
//     and after a Snapshot → Restore round trip.
//   - PathToRoot/Ancestor/Distance agree with each other and with Depth.
//   - The DFS interval labeling (the Kannan–Naor–Rudich ancestry encoding
//     the labeling application builds on) answers ancestry exactly like
//     the pointer walk IsAncestor.
//
// Two bytes encode one operation: an opcode and a node selector.
//
// Random parents keep a tree of 128 nodes shallower than one express stride,
// so one seed goes deep on purpose (deepSeed).
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte("0000000000000000"))         // grow-only burst
	f.Add([]byte("0a1b2c3d4e5f6071"))         // mixed add/remove/split
	f.Add([]byte("09192939495969798999a9b9")) // remove-heavy after growth
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 0, 3, 1, 2, 2, 0, 3, 1, 1, 2, 5, 3, 2})
	f.Add(deepSeed())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, root := New()
		ref := newRefTree()
		sorted := func(ids []NodeID) []NodeID {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids
		}
		for i := 0; i+1 < len(data) && tr.Size() < 128; i += 2 {
			op, sel := data[i]%4, int(data[i+1])
			switch op {
			case 0: // add leaf
				nodes := sorted(tr.Nodes())
				parent := nodes[sel%len(nodes)]
				if _, err := tr.ApplyAddLeaf(parent); err != nil {
					t.Fatalf("add leaf under %d: %v", parent, err)
				}
				ref.addLeaf(parent)
			case 1: // remove a non-root leaf
				var leaves []NodeID
				for _, id := range sorted(tr.Leaves()) {
					if id != root {
						leaves = append(leaves, id)
					}
				}
				if len(leaves) == 0 {
					continue
				}
				id := leaves[sel%len(leaves)]
				if err := tr.ApplyRemoveLeaf(id); err != nil {
					t.Fatalf("remove leaf %d: %v", id, err)
				}
				ref.removeLeaf(id)
			case 2: // split a parent edge (add internal)
				var cands []NodeID
				for _, id := range sorted(tr.Nodes()) {
					if id != root {
						cands = append(cands, id)
					}
				}
				if len(cands) == 0 {
					continue
				}
				child := cands[sel%len(cands)]
				if _, err := tr.ApplyAddInternal(child); err != nil {
					t.Fatalf("add internal above %d: %v", child, err)
				}
				ref.addInternal(child)
			case 3: // remove a non-root internal node
				var cands []NodeID
				for _, id := range sorted(tr.Nodes()) {
					if id != root && !tr.IsLeaf(id) {
						cands = append(cands, id)
					}
				}
				if len(cands) == 0 {
					continue
				}
				id := cands[sel%len(cands)]
				if err := tr.ApplyRemoveInternal(id); err != nil {
					t.Fatalf("remove internal %d: %v", id, err)
				}
				ref.removeInternal(id)
			}
			if err := ref.checkDense(tr); err != nil {
				t.Fatalf("after operation %d (opcode %d): %v", i/2, op, err)
			}
		}
		back, _ := New()
		if err := back.Restore(tr.Snapshot()); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if err := ref.checkDense(back); err != nil {
			t.Fatalf("restored tree: %v", err)
		}
		if err := portsDistinct(tr); err != nil {
			t.Fatal(err)
		}
		for id := range tr.All() {
			up, errUp := tr.ParentPort(id)
			backUp, errBackUp := back.ParentPort(id)
			if up != backUp || (errUp == nil) != (errBackUp == nil) {
				t.Fatalf("node %d: parent port %d (%v), restored %d (%v)", id, up, errUp, backUp, errBackUp)
			}
			kids, _ := tr.Children(id)
			for _, k := range kids {
				down, _ := tr.ChildPort(id, k)
				if backDown, err := back.ChildPort(id, k); err != nil || backDown != down {
					t.Fatalf("edge %d->%d: port %d, restored %d (%v)", id, k, down, backDown, err)
				}
			}
		}

		if err := tr.Validate(); err != nil {
			t.Fatalf("validate after history: %v", err)
		}

		nodes := sorted(tr.Nodes())
		// One entry per id ever issued, and pre is 0 exactly at the ids
		// that are not in the tree.
		iv := tr.Intervals()
		if len(iv) != tr.EverExisted()+1 {
			t.Fatalf("labeling has %d entries, %d ids were issued", len(iv), tr.EverExisted()+1)
		}
		labeled := 0
		for id, p := range iv {
			if (p[0] > 0) != tr.Contains(NodeID(id)) {
				t.Fatalf("interval(%d) = %v, live %v", id, p, tr.Contains(NodeID(id)))
			}
			if p[0] > 0 {
				labeled++
			}
		}
		if labeled != len(nodes) {
			t.Fatalf("labeling covers %d nodes, tree has %d", labeled, len(nodes))
		}

		// Path round-trips along every root path, and Deepest against a
		// scan over Depth that keeps the first (smallest) id of the
		// deepest depth.
		deepest, deepestD := root, 0
		for _, u := range nodes {
			d, err := tr.Depth(u)
			if err != nil {
				t.Fatal(err)
			}
			if d > deepestD {
				deepest, deepestD = u, d
			}
			path, err := tr.PathToRoot(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) != d+1 || path[0] != u || path[len(path)-1] != root {
				t.Fatalf("path to root from %d (depth %d) is %v", u, d, path)
			}
			for dist, w := range path {
				a, err := tr.Ancestor(u, dist)
				if err != nil || a != w {
					t.Fatalf("Ancestor(%d, %d) = %d, %v; path says %d", u, dist, a, err, w)
				}
				dd, err := tr.Distance(u, w)
				if err != nil || dd != dist {
					t.Fatalf("Distance(%d, %d) = %d, %v; path says %d", u, w, dd, err, dist)
				}
			}
		}

		if got := tr.Deepest(); got != deepest {
			t.Fatalf("Deepest() = %d, the scan over Depth finds %d at depth %d", got, deepest, deepestD)
		}
		if got := back.Deepest(); got != deepest {
			t.Fatalf("restored tree: Deepest() = %d, want %d", got, deepest)
		}

		// Each interval is one preorder walk's: the node's own number
		// opens it, its children's intervals tile the rest in insertion
		// order, and its length is the count over Subtree.
		for _, u := range nodes {
			size := 0
			for range tr.Subtree(u) {
				size++
			}
			if got := int(iv[u][1] - iv[u][0] + 1); got != size {
				t.Fatalf("interval(%d)=%v spans %d nodes, Subtree counts %d", u, iv[u], got, size)
			}
			kids, _ := tr.Children(u)
			next := iv[u][0] + 1
			for _, k := range kids {
				if iv[k][0] != next {
					t.Fatalf("child %d of %d opens at %d, want %d", k, u, iv[k][0], next)
				}
				next = iv[k][1] + 1
			}
		}
		if iv[root] != [2]int32{1, int32(len(nodes))} {
			t.Fatalf("interval(root) = %v, want [1 %d]", iv[root], len(nodes))
		}

		// The interval labels must answer ancestry exactly like the
		// pointer walk, for every ordered pair.
		for _, u := range nodes {
			for _, v := range nodes {
				want, err := tr.IsAncestor(u, v)
				if err != nil {
					t.Fatal(err)
				}
				got := iv[u][0] <= iv[v][0] && iv[v][1] <= iv[u][1]
				if got != want {
					t.Fatalf("labeling: interval(%d)=%v contains interval(%d)=%v is %v, IsAncestor says %v",
						u, iv[u], v, iv[v], got, want)
				}
			}
		}
	})
}

// deepSeed is a FuzzTreeOps input that reaches depths where express links
// exist and then moves them: a leaf under the newest node, two and a half
// strides deep, then edges split and internal nodes deleted in the middle of
// that chain, with leaves hung off it in between so that the subtrees that
// change level branch.
func deepSeed() []byte {
	var data []byte
	for i := 0; i < 5*expressStride/2; i++ {
		data = append(data, 0, byte(i)) // the newest of i+1 nodes
	}
	mid := byte(expressStride + 3)
	for _, op := range [][2]byte{
		{2, mid}, {0, mid + 2}, {2, mid - 8}, {3, mid}, {0, mid - 1}, {3, mid - 9},
		{2, 2*mid - 3}, {3, 3}, {1, 0}, {2, mid + 5}, {3, mid + 5}, {3, mid + 4},
	} {
		data = append(data, op[0], op[1])
	}
	return data
}
