package tree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// This file holds the tree's reference model: the hash-map representation
// the dense tree replaced, kept as small as it can be, and the differential
// test that replays seeded random histories of all four change kinds through
// both and compares full snapshots after every step. What the model pins is
// everything the snapshot bytes depend on: ids, the order swap-removes leave
// children in, which ports count as taken when an assigner draws (including
// the port a re-linked node last used toward a parent), the deleted set and
// the change sequence.

type refNode struct {
	id         NodeID
	parent     NodeID
	children   []NodeID
	childIndex map[NodeID]int
	parentPort int
	childPorts map[NodeID]int
}

type refTree struct {
	nodes       map[NodeID]*refNode
	root        NodeID
	nextID      NodeID
	ports       PortAssigner
	changeSeq   uint64
	everExisted int
	deleted     map[NodeID]struct{}
}

// refPorts is the materialised port set the model hands its assigner.
type refPorts map[int]struct{}

func (s refPorts) Has(port int) bool { _, ok := s[port]; return ok }

func newRefTree(ports PortAssigner) *refTree {
	r := &refTree{nodes: map[NodeID]*refNode{}, nextID: 1, ports: ports, deleted: map[NodeID]struct{}{}}
	r.root = r.alloc(InvalidNode).id
	return r
}

func (r *refTree) alloc(parent NodeID) *refNode {
	n := &refNode{id: r.nextID, parent: parent, childIndex: map[NodeID]int{}, childPorts: map[NodeID]int{}}
	r.nextID++
	r.everExisted++
	r.nodes[n.id] = n
	return n
}

func (r *refTree) used(n *refNode) refPorts {
	used := refPorts{}
	if n.parent != InvalidNode {
		used[n.parentPort] = struct{}{}
	}
	for _, p := range n.childPorts {
		used[p] = struct{}{}
	}
	return used
}

func (r *refTree) link(p, c *refNode) {
	c.parent = p.id
	c.parentPort = r.ports.Assign(c.id, r.used(c))
	p.childIndex[c.id] = len(p.children)
	p.children = append(p.children, c.id)
	p.childPorts[c.id] = r.ports.Assign(p.id, r.used(p))
}

func (r *refTree) unlink(p, c *refNode) {
	idx, last := p.childIndex[c.id], len(p.children)-1
	if idx != last {
		moved := p.children[last]
		p.children[idx] = moved
		p.childIndex[moved] = idx
	}
	p.children = p.children[:last]
	delete(p.childIndex, c.id)
	delete(p.childPorts, c.id)
	c.parent = InvalidNode
}

func (r *refTree) drop(n *refNode) {
	delete(r.nodes, n.id)
	r.deleted[n.id] = struct{}{}
}

func (r *refTree) addLeaf(parent NodeID) {
	r.link(r.nodes[parent], r.alloc(parent))
	r.changeSeq++
}

func (r *refTree) removeLeaf(id NodeID) {
	n := r.nodes[id]
	r.unlink(r.nodes[n.parent], n)
	r.drop(n)
	r.changeSeq++
}

func (r *refTree) addInternal(child NodeID) {
	c := r.nodes[child]
	p := r.nodes[c.parent]
	u := r.alloc(p.id)
	r.unlink(p, c)
	r.link(p, u)
	r.link(u, c)
	r.changeSeq++
}

func (r *refTree) removeInternal(id NodeID) {
	n := r.nodes[id]
	p := r.nodes[n.parent]
	for _, cid := range append([]NodeID(nil), n.children...) {
		c := r.nodes[cid]
		r.unlink(n, c)
		r.link(p, c)
	}
	r.unlink(p, n)
	r.drop(n)
	r.changeSeq++
}

func (r *refTree) snapshot() *Snapshot {
	s := &Snapshot{
		Root:        r.root,
		NextID:      r.nextID,
		ChangeSeq:   r.changeSeq,
		EverExisted: r.everExisted,
		Deleted:     make([]NodeID, 0, len(r.deleted)),
		Nodes:       make([]NodeSnapshot, 0, len(r.nodes)),
	}
	for id := range r.deleted {
		s.Deleted = append(s.Deleted, id)
	}
	sort.Slice(s.Deleted, func(i, j int) bool { return s.Deleted[i] < s.Deleted[j] })
	for _, n := range r.nodes {
		ns := NodeSnapshot{
			ID:         n.id,
			Parent:     n.parent,
			ParentPort: n.parentPort,
			Children:   append([]NodeID(nil), n.children...),
			ChildPorts: make([]int, len(n.children)),
		}
		for i, cid := range n.children {
			ns.ChildPorts[i] = n.childPorts[cid]
		}
		s.Nodes = append(s.Nodes, ns)
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].ID < s.Nodes[j].ID })
	return s
}

// checkDense compares the tree's dense parent, depth and express slices,
// entry by entry over the whole id space, with the model: a live id carries
// the model's parent, the depth the model's parent chain gives it and, as its
// express link, the first node up that chain at a depth that is a multiple of
// the stride; a deleted one (and index 0) InvalidNode, -1 and InvalidNode.
func (r *refTree) checkDense(tr *Tree) error {
	if len(tr.parent) != int(r.nextID) || len(tr.depth) != int(r.nextID) || tr.express.Len() != int(r.nextID) {
		return fmt.Errorf("%d parent links, %d depths and %d express links for ids below %d",
			len(tr.parent), len(tr.depth), tr.express.Len(), r.nextID)
	}
	for id := NodeID(0); id < r.nextID; id++ {
		var parent, express NodeID
		depth := -1
		if n, live := r.nodes[id]; live {
			parent, depth = n.parent, 0
			for p := parent; p != InvalidNode; p = r.nodes[p].parent {
				depth++
			}
			for p, d := parent, depth-1; p != InvalidNode && express == InvalidNode; p, d = r.nodes[p].parent, d-1 {
				if d%expressStride == 0 {
					express = p
				}
			}
		}
		if tr.parent[id] != parent || int(tr.depth[id]) != depth || *tr.express.At(id) != express || tr.Express(id) != express {
			return fmt.Errorf("id %d: parent %d at depth %d with express link %d, the model says parent %d at depth %d with link %d",
				id, tr.parent[id], tr.depth[id], *tr.express.At(id), parent, depth, express)
		}
	}
	return nil
}

// linked reports whether some node's express link is a stop below the root:
// a history under which none is has not tested the links.
func linked(tr *Tree) bool {
	for id := range tr.All() {
		if r := tr.Express(id); r != InvalidNode && r != tr.Root() {
			return true
		}
	}
	return false
}

func TestTreeMatchesMapModel(t *testing.T) {
	assigners := map[string]func(seed int64) PortAssigner{
		"sequential":  func(int64) PortAssigner { return NewSequentialPorts() },
		"adversarial": func(seed int64) PortAssigner { return NewAdversarialPorts(seed) },
	}
	for name, assigner := range assigners {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				replayAgainstModel(t, seed, assigner)
			}
		})
	}
}

// listHolders counts the model's nodes with children: the nodes that hold a
// slot of the tree's child-list table.
func (r *refTree) listHolders() int {
	holders := 0
	for _, n := range r.nodes {
		if len(n.children) > 0 {
			holders++
		}
	}
	return holders
}

// replayAgainstModel applies one seeded history to a tree and to the model.
// It opens with a spine two and a half strides deep, so that what follows
// splits, cuts and re-depths subtrees that hang off express stops below the
// root; then the mix leans toward growth early and toward removal late, so
// histories visit both wide nodes and long runs of swap-removes.
func replayAgainstModel(t *testing.T, seed int64, assigner func(int64) PortAssigner) {
	const steps, spine = 400, 5 * expressStride / 2
	rng := rand.New(rand.NewSource(seed))
	tr, root := New(WithPortAssigner(assigner(seed)))
	ref := newRefTree(assigner(seed))
	everLinked := false
	peak, reused := 0, false // the most nodes with children at once; whether a freed list was taken
	for step := 0; step < steps; step++ {
		freed := len(tr.free)
		nodes := tr.Nodes()
		id := nodes[rng.Intn(len(nodes))]
		op := rng.Intn(4)
		if step > steps/2 && rng.Intn(3) == 0 {
			op = 1 + 2*rng.Intn(2) // a removal
		}
		if step < spine {
			id, op = NodeID(tr.EverExisted()), 0 // a leaf under the last one
		}
		var err error
		switch {
		case op == 0:
			_, err = tr.ApplyAddLeaf(id)
			ref.addLeaf(id)
		case op == 1 && id != root && tr.IsLeaf(id):
			err = tr.ApplyRemoveLeaf(id)
			ref.removeLeaf(id)
		case op == 2 && id != root:
			_, err = tr.ApplyAddInternal(id)
			ref.addInternal(id)
		case op == 3 && id != root && !tr.IsLeaf(id):
			err = tr.ApplyRemoveInternal(id)
			ref.removeInternal(id)
		default:
			continue
		}
		if err != nil {
			t.Fatalf("seed %d step %d: op %d at %d: %v", seed, step, op, id, err)
		}
		// The list table is as long as the most nodes that held children at
		// once: a slot a deleted or emptied node gave up is taken before the
		// table grows, so churn does not grow it.
		holders := ref.listHolders()
		peak = max(peak, holders)
		if slots := tr.lists.Len() - 1; slots != peak || len(tr.free) != peak-holders {
			t.Fatalf("seed %d step %d: after op %d at %d: %d list slots and %d free for %d nodes with children, at most %d at once",
				seed, step, op, id, slots, len(tr.free), holders, peak)
		}
		reused = reused || len(tr.free) < freed
		if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: after op %d at %d the tree and the model differ:\n tree  %+v\n model %+v",
				seed, step, op, id, got, want)
		}
		if err := ref.checkDense(tr); err != nil {
			t.Fatalf("seed %d step %d: after op %d at %d: %v", seed, step, op, id, err)
		}
		everLinked = everLinked || step > spine && op >= 2 && linked(tr)
	}
	if !everLinked {
		t.Fatalf("seed %d: no subtree moved a level while a node hung off an express stop below the root", seed)
	}
	if !reused {
		t.Fatalf("seed %d: no change took a child list another node gave up", seed)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for id := NodeID(-1); id <= NodeID(tr.EverExisted())+1; id++ {
		_, live := ref.nodes[id]
		_, deleted := ref.deleted[id]
		if tr.Contains(id) != live || tr.WasDeleted(id) != deleted {
			t.Fatalf("seed %d: id %d: Contains %v, WasDeleted %v; model says live %v, deleted %v",
				seed, id, tr.Contains(id), tr.WasDeleted(id), live, deleted)
		}
	}
	// The snapshot restores into an identical tree.
	snap := tr.Snapshot()
	back, _ := New()
	if err := back.Restore(snap); err != nil {
		t.Fatalf("seed %d: restore: %v", seed, err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("seed %d: restored tree: %v", seed, err)
	}
	if got := back.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("seed %d: restore changed the snapshot", seed)
	}
	if err := ref.checkDense(back); err != nil {
		t.Fatalf("seed %d: restored tree: %v", seed, err)
	}
}

// TestSplitsAcrossTableChunks grows the node table through two chunk
// boundaries inside one run of edge splits and internal removals, the changes
// that allocate a node while the entries of its neighbours are in use: every
// split relinks three nodes around the new one. The tree is compared with the
// model, dense slices and all, and validated after every step.
func TestSplitsAcrossTableChunks(t *testing.T) {
	tr, root := New(WithPortAssigner(NewSequentialPorts()))
	ref := newRefTree(NewSequentialPorts())
	bottom := mustAddLeaf(t, tr, root)
	ref.addLeaf(root)
	for step := 0; tr.EverExisted() <= 2*chunkLen+3; step++ {
		u, err := tr.ApplyAddInternal(bottom)
		if err != nil {
			t.Fatalf("step %d: split above %d: %v", step, bottom, err)
		}
		ref.addInternal(bottom)
		if step%4 != 0 {
			// Take the node just inserted out again: its one child moves
			// back under its parent. Three splits in four go this way, so
			// the ids run ahead of the depth the model check pays for.
			if err := tr.ApplyRemoveInternal(u); err != nil {
				t.Fatalf("step %d: remove %d: %v", step, u, err)
			}
			ref.removeInternal(u)
		}
		if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: the tree and the model differ:\n tree  %+v\n model %+v", step, got, want)
		}
		if err := ref.checkDense(tr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if chunks := len(tr.nodes.chunks); chunks < 3 {
		t.Fatalf("the node table holds %d chunks: the run crossed no two boundaries", chunks)
	}
}

// TestNodesAndLeavesAscending pins the order Nodes and Leaves promise: the
// seeded generators of internal/workload index into it without sorting.
func TestNodesAndLeavesAscending(t *testing.T) {
	tr := randomScenario(11, 600)
	ascending := func(ids []NodeID) bool {
		return sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	nodes, leaves := tr.Nodes(), tr.Leaves()
	if len(nodes) != tr.Size() || !ascending(nodes) {
		t.Fatalf("Nodes() = %v: want all %d live ids ascending", nodes, tr.Size())
	}
	if len(leaves) == 0 || !ascending(leaves) {
		t.Fatalf("Leaves() = %v: want ascending", leaves)
	}
}

// hugeID is an id no snapshot of these tests comes near, and its count fits
// the int of Snapshot.EverExisted on every word size.
const hugeID = math.MaxInt32

var onePastMaxPort int64 = MaxPort + 1

// corruptions are snapshot edits Restore must refuse before it sizes
// anything from them. The first is the one that matters with dense storage:
// every field agrees that ids run up to hugeID.
var corruptions = map[string]func(s *Snapshot){
	"consistent huge id": func(s *Snapshot) {
		last := &s.Nodes[len(s.Nodes)-1]
		for _, n := range s.Nodes {
			for i, c := range n.Children {
				if c == last.ID {
					n.Children[i] = hugeID
				}
			}
		}
		for _, c := range last.Children {
			for i := range s.Nodes {
				if s.Nodes[i].ID == c {
					s.Nodes[i].Parent = hugeID
				}
			}
		}
		last.ID, s.NextID, s.EverExisted = hugeID, hugeID+1, hugeID
	},
	"node id beyond next id": func(s *Snapshot) { s.Nodes[len(s.Nodes)-1].ID = s.NextID },
	"node id zero":           func(s *Snapshot) { s.Nodes[len(s.Nodes)-1].ID = 0 },
	"node id negative":       func(s *Snapshot) { s.Nodes[len(s.Nodes)-1].ID = -7 },
	"next id beyond count":   func(s *Snapshot) { s.NextID += 3 },
	"ever existed inflated":  func(s *Snapshot) { s.EverExisted, s.NextID = hugeID, hugeID+1 },
	"deleted id out of range": func(s *Snapshot) {
		s.Deleted[len(s.Deleted)-1] = 1 << 40
	},
	"deleted id live":    func(s *Snapshot) { s.Deleted[0] = s.Root },
	"deleted id twice":   func(s *Snapshot) { s.Deleted[1] = s.Deleted[0] },
	"child out of range": func(s *Snapshot) { s.Nodes[0].Children[0] = 1 << 40 },
	// The node table keeps the port toward the parent in 32 bits: a port it
	// cannot hold is refused, not truncated. Where int is 32 bits, one past
	// MaxPort wraps to one below -MaxPort, which is refused as well.
	"parent port above 32 bits": func(s *Snapshot) { s.Nodes[1].ParentPort = int(onePastMaxPort) },
	"parent port below 32 bits": func(s *Snapshot) { s.Nodes[1].ParentPort = -MaxPort - 1 },
	// Not an id, but a snapshot no live tree can be in, which Restore must
	// refuse on its own and not leave to a caller's Validate.
	"duplicate child port": func(s *Snapshot) {
		for _, n := range s.Nodes {
			if len(n.ChildPorts) > 1 {
				n.ChildPorts[1] = n.ChildPorts[0]
				return
			}
		}
		panic("no node with two children")
	},
	"node lists itself as a child": func(s *Snapshot) { listItself(s, 1) },
}

// listItself makes the first non-root node with children list itself k more
// times, each on a port of its own.
func listItself(s *Snapshot, k int) {
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.ID == s.Root || len(n.Children) == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			n.Children = append(n.Children, n.ID)
			n.ChildPorts = append(n.ChildPorts, MaxPort-j)
		}
		return
	}
	panic("no non-root node with children")
}

// A node that lists itself k times would, were each pop to push its list
// again, grow the walk's stack to about k entries per listed node before any
// check saw the cycle. Restore must refuse it having allocated in proportion
// to the snapshot, not to that product.
func TestRestoreSelfListingIsRefusedInLinearSpace(t *testing.T) {
	const k = 1 << 12
	snap := randomScenario(3, 2000).Snapshot()
	listItself(snap, k)
	tr, _ := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := tr.Restore(snap)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted a node that lists itself")
	}
	// The self-list alone is k edges of 16 B; the stack may hold each listed
	// node once. Everything else Restore sizes is per id.
	limit := uint64(64*k + 64*int(snap.NextID))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("refusing %d listed nodes with a %d-fold self-list allocated %d B, want at most %d",
			len(snap.Nodes), k, got, limit)
	}
}

func TestRestoreRejectsCorruptIDs(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			snap := randomScenario(3, 300).Snapshot()
			if len(snap.Deleted) < 2 || len(snap.Nodes[0].Children) == 0 {
				t.Fatal("scenario too small for the corruption table")
			}
			corrupt(snap)
			tr, root := New()
			leaf := mustAddLeaf(t, tr, root)
			before := tr.Snapshot()
			if err := tr.Restore(snap); err == nil {
				t.Fatal("Restore accepted the corrupt snapshot")
			}
			if !reflect.DeepEqual(tr.Snapshot(), before) || !tr.Contains(leaf) {
				t.Fatal("a refused Restore changed the tree")
			}
		})
	}
}
