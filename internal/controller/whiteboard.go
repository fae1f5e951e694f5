package controller

import (
	"fmt"
	"math"
	"math/bits"

	"dynctrl/internal/pkgstore"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Whiteboard is the per-node state of one fixed-U (M,W)-controller: every
// node's package store, the root's permit storage and its serial interval,
// and the grant/reject tallies. Both execution models keep exactly this
// state and differ only in how a package gets from one whiteboard to the
// next — a direct move in Core (Section 3), messages over a runtime in
// dist.Core (Section 4) — so the items of Protocol GrantOrReject that touch
// no edge are written here once and the cores add the transport.
type Whiteboard struct {
	tr     *tree.Tree
	root   tree.NodeID // tr's root, which outlives every whiteboard
	params pkgstore.Params
	// stores is indexed by NodeID (ids are dense, see package tree) and holds
	// the stores themselves; an entry that is not Present marks an id
	// without a whiteboard: never seen, or deleted. A joining node costs no
	// allocation but a chunk of the table every 512 ids, and a
	// *pkgstore.Store taken from the table (Store, lookup) stays good while
	// these whiteboards are in use: growing moves no entry. The table is
	// handed, emptied, from the whiteboards an iteration discards to the
	// ones the next iteration builds (newWhiteboard), each store keeping its
	// backing array.
	stores tree.Table[pkgstore.Store]
	// masks is indexed by NodeID like stores and as long: bit j of masks[id]
	// is set iff the store of id holds a mobile package of level j, bit 31
	// iff it holds one of level 31 or above (levelBit).
	// It is the one-bit-a-level projection of Claim 4.8's whiteboard
	// encoding, derived from stores (State does not carry it, restoring
	// rebuilds it), and what the filler search scans: a climb reads this
	// slice and opens a store only where the level it needs is present. To
	// keep the two in step, a mobile package enters or leaves a store
	// through the Whiteboard methods below and never through the
	// pkgstore.Store a caller got from Store.
	masks []uint32
	// blocks is indexed by NodeID like masks: blocks[r] is the row of the
	// express stop r, eight byte counters, and byte j counts the ids whose
	// express link in tr is r and whose mask has bit j, byte 7 those with any
	// bit from 7 on (lanesOf). Exactly one level qualifies at a distance, so
	// the filler search jumps to r past a stretch whose row is zero for the
	// one or two levels the stretch's distances call for, whatever other
	// levels rest there (tree.ClimbMarked, bands). A counter that reaches 255
	// stays there until the next full count (syncBlocks), so a zero still
	// proves the level absent. The slice is as long as the highest stop that
	// ever counted a mark needs, never nil, and a stop beyond it counts none:
	// a bushy tree has a handful of stops and pays for a handful of rows. The
	// tree owns the links and the whiteboards the rows: setMask keeps them in
	// step with the masks, Grant with the links an internal change moves, and
	// linkEpoch is the tree's express epoch they were last known good at, for
	// a tree changed by anyone else (syncBlocks). Derived like masks: State
	// does not carry them.
	blocks    []uint64
	linkEpoch uint64
	lifted    []tree.NodeID // lift's scratch, empty between two Grants

	storage  int64             // permits remaining at the root's storage
	serials  pkgstore.Interval // serial numbers backing the storage, if any
	counters *stats.Counters
	descent  *descentObserver // nil unless an application listens
	domains  *DomainTracker   // Core.EnableDomainTracking's analysis, else nil

	noRejects  bool
	rejectWave bool
	granted    int64
	rejected   int64

	// bands are the distance bands of the filler test, the band of level j
	// ending at 2^{j+1}ψ (fillerBands): what tells the climb which mask bit
	// counts at a distance.
	bands []int
}

// CoreOption configures the whiteboards of a fixed-U core; the options are
// the same whichever transport moves the packages.
type CoreOption func(*Whiteboard)

// withCounters directs cost accounting into c: a driver hands its own set
// to every iteration's whiteboards, so one set totals the run.
func withCounters(c *stats.Counters) CoreOption {
	return func(wb *Whiteboard) { wb.counters = c }
}

// WithSerials attaches explicit permit serial numbers to the root storage;
// the interval length must be at least M.
func WithSerials(iv pkgstore.Interval) CoreOption {
	return func(wb *Whiteboard) { wb.serials = iv }
}

// withNoRejects makes the core return WouldReject instead of flooding the
// reject wave (the terminating transformation of Observation 2.1).
func withNoRejects() CoreOption {
	return func(wb *Whiteboard) { wb.noRejects = true }
}

// WithDescentObserver registers fn to observe downward package moves. fn
// is called once for each node a permit package of the given size enters on
// its way down the tree: the root when the storage funds a package there
// (the permits leave the storage and enter the root's whiteboard), then
// every node below the package's host down to its destination, in the order
// the package reaches them. The subtree estimator of Section 5.3 sums what
// passed through each node, and needs the root counted for ω̃(root) to
// dominate the root's super-weight.
func WithDescentObserver(fn func(size int64, enters tree.NodeID)) CoreOption {
	return func(wb *Whiteboard) { wb.descent = &descentObserver{fn: fn} }
}

// descentObserver is a registered descent observer with the scratch the
// centralized core lists a package's path in for it (Core.moveDown).
type descentObserver struct {
	fn   func(size int64, enters tree.NodeID)
	path []tree.NodeID
}

// newWhiteboard creates the whiteboards of a fixed-U (m, w)-controller over
// tr assuming at most u nodes ever exist; the root's storage holds the m
// permits. prev, when not nil, is the whiteboards of the iteration that just
// ended: the caller is done with them, and their tables are taken over,
// emptied rather than copied, and each store of a live node keeps its backing
// array at length 0, so an iteration restart allocates neither a table nor a
// store's array. Nothing of prev shows through: what it held for an id is
// gone, whether the node still lives or was deleted under it.
func newWhiteboard(tr *tree.Tree, u, m, w int64, prev *Whiteboard, opts ...CoreOption) *Whiteboard {
	wb := &Whiteboard{tr: tr, root: tr.Root(), params: pkgstore.NewParams(u, m, w), storage: m,
		linkEpoch: tr.ExpressEpoch()}
	wb.bands = fillerBands(wb.params.Psi)
	for _, opt := range opts {
		opt(wb)
	}
	if prev != nil {
		wb.stores, wb.masks, wb.blocks = prev.stores, prev.masks, prev.blocks
		prev.stores, prev.masks, prev.blocks = tree.Table[pkgstore.Store]{}, nil, nil
		wb.clearMasks()
	}
	// Every live node starts with an empty store (State lists them all) and
	// every other id without one. The tables only grow: an id past the
	// tree's next one, which a Restore to an earlier tree can leave, has
	// none either.
	wb.resize(max(tr.EverExisted()+1, wb.stores.Len()))
	for id, s := range wb.stores.All() {
		switch {
		case !tr.Contains(id):
			*s = pkgstore.Store{}
		case s.Present():
			s.Clear()
		default:
			*s = pkgstore.NewStore()
		}
	}
	if wb.counters == nil {
		wb.counters = stats.NewCounters()
	}
	return wb
}

// resize grows the two tables to n entries; neither ever shrinks. What lies
// between the mask slice's length and its capacity is therefore zero, and
// growing within the capacity uncovers clear masks; beyond it the slice
// doubles, like the tree's parent links it is scanned beside. The block rows
// grow where a count is written (countBlock) and start out empty, not nil,
// which tree.ClimbMarked would read as no rows kept at all.
func (wb *Whiteboard) resize(n int) {
	wb.stores.Grow(n)
	wb.masks = regrow(wb.masks, n)
	if wb.blocks == nil {
		wb.blocks = []uint64{}
	}
}

// fillerBands returns the upper ends of the filler test's distance bands for
// ψ: level 0 qualifies up to 2ψ and level j on (2^jψ, 2^{j+1}ψ], so band j
// ends at 2^{j+1}ψ. The list stops where the next end would pass the largest
// int, and every distance beyond its last entry is in the band after it,
// which is Params.RootLevel of that distance: the band of every distance is
// the level that qualifies there.
func fillerBands(psi int64) []int {
	var bands []int
	for j := 1; j < 64 && psi <= math.MaxInt>>j; j++ {
		bands = append(bands, int(psi<<j))
	}
	return bands
}

// regrow returns s at length n, moved to twice the capacity where n exceeds
// it.
func regrow[E any](s []E, n int) []E {
	if n > cap(s) {
		grown := make([]E, n, max(n, 2*cap(s)))
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// Tree returns the tree the whiteboards hang off.
func (wb *Whiteboard) Tree() *tree.Tree { return wb.tr }

// Params exposes the derived φ/ψ parameters.
func (wb *Whiteboard) Params() pkgstore.Params { return wb.params }

// Granted returns the number of permits granted so far.
func (wb *Whiteboard) Granted() int64 { return wb.granted }

// Rejected returns the number of rejects delivered so far.
func (wb *Whiteboard) Rejected() int64 { return wb.rejected }

// Storage returns the permits remaining in the root's storage.
func (wb *Whiteboard) Storage() int64 { return wb.storage }

// Counters returns the cost counters.
func (wb *Whiteboard) Counters() *stats.Counters { return wb.counters }

// NoRejects reports whether the core answers WouldReject instead of
// rejecting (the terminating transformation of Observation 2.1).
func (wb *Whiteboard) NoRejects() bool { return wb.noRejects }

// NodePermits returns the number of permits (static and mobile) currently
// stored at the given node.
func (wb *Whiteboard) NodePermits(id tree.NodeID) int64 {
	s := wb.lookup(id)
	if s == nil {
		return 0
	}
	return s.PermitCount()
}

// MemoryBitsAt estimates the whiteboard size of the given node in bits
// (Claim 4.8).
func (wb *Whiteboard) MemoryBitsAt(id tree.NodeID) int {
	s := wb.lookup(id)
	if s == nil {
		return 0
	}
	return s.MemoryBits(wb.params)
}

// UnusedPermits returns the permits not yet granted: root storage plus all
// permits sitting in packages. The iteration drivers use this as L.
func (wb *Whiteboard) UnusedPermits() int64 {
	n := wb.storage
	for _, s := range wb.stores.All() {
		n += s.PermitCount()
	}
	return n
}

// clearPackages removes every package from the graph and returns all
// unused permits to the root storage (iteration resets, Section 3.3).
func (wb *Whiteboard) clearPackages() {
	total := wb.storage
	for _, s := range wb.stores.All() {
		total += s.PermitCount()
		s.Clear()
	}
	wb.clearMasks()
	wb.storage = total
	wb.rejectWave = false
}

// Store returns the package store of a live node, creating it lazily (new
// nodes join with empty stores). Callers read it, and add or take static
// packages and the reject flag through it; its mobile packages change only
// through AddMobile, RemoveMobile and Absorb. A *pkgstore.Package taken from
// it, or from Filler or AddMobile, is good until that store next changes.
func (wb *Whiteboard) Store(id tree.NodeID) *pkgstore.Store {
	if s := wb.lookup(id); s != nil {
		return s
	}
	if int(id) >= wb.stores.Len() {
		wb.resize(int(id) + 1)
	}
	s := wb.stores.At(id)
	*s = pkgstore.NewStore()
	return s
}

// levelBit is the mask bit of a mobile package level. Levels lie in
// [0, Params.MaxLevel], which reaches 31 only for a U past 2^29; a level
// from 31 on shares the top bit, so whatever a store holds, a clear bit still
// proves the level absent.
func levelBit(level int) uint32 { return 1 << min(uint(level), 31) }

// lanesOf returns the counters of a block row a mask counts in, one bit a
// byte of the row: bit j for a mask bit j below 7, bit 7 for any mask bit
// from 7 on.
func lanesOf(m uint32) uint8 {
	lanes := uint8(m & 0x7f)
	if m>>7 != 0 {
		lanes |= 0x80
	}
	return lanes
}

// setMask is the one place the mask of a single id changes: each counter of
// the row of the block id hangs off follows the bit it counts.
func (wb *Whiteboard) setMask(id tree.NodeID, m uint32) {
	if old, lanes := lanesOf(wb.masks[id]), lanesOf(m); old != lanes {
		wb.countBlock(id, lanes&^old, old&^lanes)
	}
	wb.masks[id] = m
}

// countBlock adds one to the counters add names, and takes one from those
// sub names, in the row of the stop id's express link names, growing the
// rows to hold it. A counter at 255 is left there: it may count more than it
// says, or fewer, never none.
func (wb *Whiteboard) countBlock(id tree.NodeID, add, sub uint8) {
	r := wb.tr.Express(id)
	if int(r) >= len(wb.blocks) {
		wb.blocks = regrow(wb.blocks, int(r)+1)
	}
	row := wb.blocks[r]
	for lanes := add | sub; lanes != 0; lanes &= lanes - 1 {
		k := bits.TrailingZeros8(lanes)
		switch {
		case uint8(row>>(8*k)) == 0xff: // stuck until the next full count
		case add>>k&1 != 0:
			row += 1 << (8 * k)
		default:
			row -= 1 << (8 * k)
		}
	}
	wb.blocks[r] = row
}

// clearMasks zeroes every mask, and with them every row.
func (wb *Whiteboard) clearMasks() {
	clear(wb.masks)
	clear(wb.blocks)
}

// syncBlocks holds the rows to the tree's express links: Grant moves them
// along with the links it changes itself, and where the tree's epoch shows
// that somebody else has moved a subtree (the trivial tail, a baseline, a
// Restore under live whiteboards), they are counted again in full, which is
// also what brings a counter stuck at 255 back to an exact count.
func (wb *Whiteboard) syncBlocks() {
	if wb.linkEpoch == wb.tr.ExpressEpoch() {
		return
	}
	clear(wb.blocks)
	for id, m := range wb.masks {
		if m != 0 {
			wb.countBlock(tree.NodeID(id), lanesOf(m), 0)
		}
	}
	wb.linkEpoch = wb.tr.ExpressEpoch()
}

// lift takes the marked nodes below head, head included, out of the rows
// ahead of a change that moves head's subtree one level and with it every
// link in it; land puts them back. Both cost a walk of the subtree, as the
// tree's own re-depthing does, and nothing per node outside it.
func (wb *Whiteboard) lift(head tree.NodeID) {
	wb.syncBlocks()
	for id := range wb.tr.Subtree(head) {
		if m := wb.maskAt(id); m != 0 {
			wb.countBlock(id, 0, lanesOf(m))
			wb.lifted = append(wb.lifted, id)
		}
	}
}

// land counts the lifted nodes under the links the change left them with.
func (wb *Whiteboard) land() {
	for _, id := range wb.lifted {
		wb.countBlock(id, lanesOf(wb.masks[id]), 0)
	}
	wb.lifted = wb.lifted[:0]
	wb.linkEpoch = wb.tr.ExpressEpoch()
}

// maskAt returns the mask of id, zero for an id beyond the table.
func (wb *Whiteboard) maskAt(id tree.NodeID) uint32 {
	if uint64(id) < uint64(len(wb.masks)) {
		return wb.masks[id]
	}
	return 0
}

// remask recomputes the mask of id from its store.
func (wb *Whiteboard) remask(id tree.NodeID, s *pkgstore.Store) {
	var m uint32
	for _, pk := range s.Mobiles() {
		m |= levelBit(pk.Level)
	}
	wb.setMask(id, m)
}

// AddMobile places the mobile package pk in the store of id and returns it
// there.
func (wb *Whiteboard) AddMobile(id tree.NodeID, pk pkgstore.Package) *pkgstore.Package {
	in := wb.Store(id).AddMobile(pk)
	wb.setMask(id, wb.masks[id]|levelBit(pk.Level))
	return in
}

// RemoveMobile takes the mobile package pk points at out of the store of id.
func (wb *Whiteboard) RemoveMobile(id tree.NodeID, pk *pkgstore.Package) error {
	s := wb.Store(id)
	if err := s.RemoveMobile(pk); err != nil {
		return err
	}
	wb.remask(id, s)
	return nil
}

// Absorb merges the packages of a gracefully deleted child, and its reject
// package if it had one, into the store of id.
func (wb *Whiteboard) Absorb(id tree.NodeID, pkgs []pkgstore.Package, hadReject bool) {
	s := wb.Store(id)
	s.Absorb(pkgs, hadReject)
	wb.remask(id, s)
}

// Filler is the filler-node test of Section 3.1, item 3, at the node id, d
// hops above the requesting node: it returns the mobile package in its store
// that qualifies for distance d, or nil. Exactly one level qualifies for a given
// distance (level 0 up to 2ψ, then level j on (2^jψ, 2^{j+1}ψ], which is
// Params.RootLevel), so the mask answers almost every call without opening
// the store, and a node without a store is not given one.
func (wb *Whiteboard) Filler(id tree.NodeID, d int64) *pkgstore.Package {
	if m := wb.maskAt(id); m == 0 || m&levelBit(wb.params.RootLevel(d)) == 0 {
		return nil
	}
	return wb.stores.At(id).MobileAtFillerDistance(wb.params, d)
}

// lookup returns the store of id, or nil when id has none.
func (wb *Whiteboard) lookup(id tree.NodeID) *pkgstore.Store {
	if uint64(id) < uint64(wb.stores.Len()) {
		if s := wb.stores.At(id); s.Present() {
			return s
		}
	}
	return nil
}

// Validate checks the request preconditions of Section 2.1: the node
// exists, a deletion names a node of the right shape, and an internal
// addition arrives at the parent-to-be. An addition is also refused, with
// tree.ErrNoIDLeft, once the tree has no id left to give the new node: the
// cores validate before they move a package, so no permit is taken for it.
func (wb *Whiteboard) Validate(req Request) error {
	tr := wb.tr
	if !tr.Contains(req.Node) {
		return fmt.Errorf("submit at %d: %w", req.Node, tree.ErrNoSuchNode)
	}
	switch req.Kind {
	case tree.RemoveLeaf:
		if req.Node == wb.root {
			return fmt.Errorf("remove root: %w", tree.ErrIsRoot)
		}
		if !tr.IsLeaf(req.Node) {
			return fmt.Errorf("remove-leaf at %d: %w", req.Node, tree.ErrNotLeaf)
		}
	case tree.RemoveInternal:
		if req.Node == wb.root {
			return fmt.Errorf("remove root: %w", tree.ErrIsRoot)
		}
		if tr.IsLeaf(req.Node) {
			return fmt.Errorf("remove-internal at %d: %w", req.Node, tree.ErrNotInternal)
		}
	case tree.AddInternal:
		p, err := tr.Parent(req.Child)
		if err != nil {
			return fmt.Errorf("add-internal: %w", err)
		}
		if p != req.Node {
			return fmt.Errorf("add-internal: request must arrive at the parent-to-be: %w",
				tree.ErrNotRelated)
		}
		return tr.CheckAdd()
	case tree.AddLeaf:
		return tr.CheckAdd()
	case tree.None:
		// No preconditions beyond the node existing.
	default:
		return fmt.Errorf("unknown request kind %v", req.Kind)
	}
	return nil
}

// Reject delivers one reject (item 1, or item 3b after the wave).
func (wb *Whiteboard) Reject() Grant {
	wb.rejected++
	wb.counters.Inc(stats.CounterRejects)
	return Grant{Outcome: Rejected}
}

// StartRejectWave marks the reject wave as flooded and reports whether the
// caller is the one to flood it: the wave runs once per whiteboard life
// (until clearPackages), later requests find the reject package locally.
func (wb *Whiteboard) StartRejectWave() bool {
	if wb.rejectWave {
		return false
	}
	wb.rejectWave = true
	return true
}

// FundAtRoot handles a filler search that reached the root from dRoot hops
// below without finding a filler (item 3b): it funds a mobile package of
// level j(u) from the root storage into *pk, the slot the caller carries it
// down from the root in. It reports false, leaving *pk alone, when the
// storage cannot fund it; the caller then rejects. The package enters the
// root only to leave it on its way down, so it is never stored there: the
// root's store, mask and block row do not change. The descent observer hears
// of it entering the root here, once for both transports.
func (wb *Whiteboard) FundAtRoot(dRoot int64, pk *pkgstore.Package) (bool, error) {
	level := wb.params.RootLevel(dRoot)
	size := wb.params.MobileSize(level)
	if wb.storage < size {
		return false, nil
	}
	var iv pkgstore.Interval
	if wb.serials.Valid() {
		iv = pkgstore.Interval{Lo: wb.serials.Lo, Hi: wb.serials.Lo + size - 1}
		if iv.Hi > wb.serials.Hi {
			return false, fmt.Errorf("root serials exhausted: need %d, have %d", size, wb.serials.Len())
		}
		wb.serials.Lo = iv.Hi + 1
	}
	*pk = pkgstore.NewMobile(wb.params, level)
	pk.Serials = iv
	wb.storage -= size
	wb.Entered(size, wb.root)
	return true, nil
}

// Entered tells the descent observer, if there is one, that a package of
// the given size entered the node id.
func (wb *Whiteboard) Entered(size int64, id tree.NodeID) {
	if wb.descent != nil {
		wb.descent.fn(size, id)
	}
}

// Grant implements item 2 of Protocol GrantOrReject: one permit of the
// static package in s, the store of the request's node as Store returned
// it, is granted, the package shrinks (and is canceled when empty), and a
// granted topological request is applied to the tree. A deleted node's
// objects leave through handoff before the node does: it carries the
// packages (and the reject package, if any) in the store of the node being
// gracefully deleted across the edge to its parent, one move centrally, one
// message distributed. The store is discarded once handoff returns.
func (wb *Whiteboard) Grant(req Request, s *pkgstore.Store, static *pkgstore.Package, handoff func(from, parent tree.NodeID, child *pkgstore.Store)) (Grant, error) {
	serial, empty, err := static.TakePermit()
	if err != nil {
		return Grant{}, err
	}
	if empty {
		if err := s.RemoveStatic(static); err != nil {
			return Grant{}, err
		}
	}
	return wb.grantTail(req, s, serial, handoff)
}

// Deliver ends procedure Proc (item 4) at the request's node, whose store s
// is as Store returned it: the level-0 package *pk that reached the node
// becomes static and grants the request its first permit, as item 2 would
// from s, and is stored in s only if permits remain in it (φ > 1). *pk is
// the caller's slot, not a package in any store. handoff is Grant's.
func (wb *Whiteboard) Deliver(req Request, s *pkgstore.Store, pk *pkgstore.Package, handoff func(from, parent tree.NodeID, child *pkgstore.Store)) (Grant, error) {
	if err := pk.BecomeStatic(); err != nil {
		return Grant{}, err
	}
	serial, empty, err := pk.TakePermit()
	if err != nil {
		return Grant{}, err
	}
	if !empty {
		s.AddStatic(*pk)
	}
	return wb.grantTail(req, s, serial, handoff)
}

// grantTail is what Grant and Deliver share once the permit is taken: it
// counts the grant and applies a granted topological request to the tree.
func (wb *Whiteboard) grantTail(req Request, s *pkgstore.Store, serial int64, handoff func(from, parent tree.NodeID, child *pkgstore.Store)) (Grant, error) {
	wb.granted++
	wb.counters.Inc(stats.CounterGrants)

	g := Grant{Outcome: Granted, Serial: serial}
	switch req.Kind {
	case tree.None:
		return g, nil
	case tree.AddLeaf, tree.AddInternal:
		var err error
		if g.NewNode, err = wb.applyChange(req); err != nil {
			return Grant{}, err
		}
		wb.Store(g.NewNode)
		if req.Kind == tree.AddInternal && wb.domains != nil {
			wb.domains.onAddInternal(g.NewNode, req.Child)
		}
	case tree.RemoveLeaf, tree.RemoveInternal:
		parent, err := wb.tr.Parent(req.Node)
		if err != nil {
			return Grant{}, err
		}
		if !s.Empty() {
			handoff(req.Node, parent, s)
		}
		// The node's mask leaves its block's row while the tree still
		// knows the node's link.
		*s = pkgstore.Store{}
		wb.setMask(req.Node, 0)
		if _, err := wb.applyChange(req); err != nil {
			return Grant{}, err
		}
	}
	wb.counters.Inc(stats.CounterTopoChanges)
	return g, nil
}

// applyChange is ApplyChange under whiteboards that hold packages: an edge
// split or an internal removal moves a subtree one level, so the marked
// nodes in it are lifted out of the block rows before and land under their
// new links after, whether or not the tree took the change.
func (wb *Whiteboard) applyChange(req Request) (tree.NodeID, error) {
	var head tree.NodeID
	switch req.Kind {
	case tree.AddInternal:
		head = req.Child
	case tree.RemoveInternal:
		head = req.Node
	default:
		return ApplyChange(wb.tr, req)
	}
	wb.lift(head)
	id, err := ApplyChange(wb.tr, req)
	wb.land()
	return id, err
}

// ApplyChange applies a granted topological request to the tree and returns
// the id of a created node, if any. Grant calls it, and so do the phases
// that run without package stores: the trivial tail and the baselines.
func ApplyChange(tr *tree.Tree, req Request) (tree.NodeID, error) {
	switch req.Kind {
	case tree.None:
		return tree.InvalidNode, nil
	case tree.AddLeaf:
		return tr.ApplyAddLeaf(req.Node)
	case tree.AddInternal:
		return tr.ApplyAddInternal(req.Child)
	case tree.RemoveLeaf:
		return tree.InvalidNode, tr.ApplyRemoveLeaf(req.Node)
	case tree.RemoveInternal:
		return tree.InvalidNode, tr.ApplyRemoveInternal(req.Node)
	default:
		return tree.InvalidNode, fmt.Errorf("applyChange: unknown kind %v", req.Kind)
	}
}

// NodeStoreState pairs one node with its captured whiteboard contents.
type NodeStoreState struct {
	Node  tree.NodeID
	Store pkgstore.StoreState
}

// WhiteboardState is the captured state of a fixed-U core. The transport
// holds none between requests (a runtime is drained before Submit returns),
// so this is all of it.
type WhiteboardState struct {
	// U, M, W are the constructor parameters (already clamped by
	// pkgstore.NewParams, which is idempotent, so re-deriving φ/ψ from them
	// reproduces the original parameters bit for bit).
	U, M, W int64

	Storage            int64
	SerialLo, SerialHi int64
	Granted, Rejected  int64
	NoRejects          bool
	RejectWave         bool

	// Stores lists every node whiteboard in ascending node order.
	Stores []NodeStoreState
}

// state captures the whiteboards' complete state. Must not be called while
// a submission is in flight.
func (wb *Whiteboard) state() WhiteboardState {
	st := WhiteboardState{
		U:          wb.params.U,
		M:          wb.params.M,
		W:          wb.params.W,
		Storage:    wb.storage,
		SerialLo:   wb.serials.Lo,
		SerialHi:   wb.serials.Hi,
		Granted:    wb.granted,
		Rejected:   wb.rejected,
		NoRejects:  wb.noRejects,
		RejectWave: wb.rejectWave,
	}
	for id, s := range wb.stores.All() {
		if s.Present() {
			st.Stores = append(st.Stores, NodeStoreState{Node: id, Store: s.State()})
		}
	}
	return st
}

// restoreWhiteboard rebuilds the whiteboards captured in st, over tr. A
// store must belong to a node tr holds or held (the whiteboards of the
// trivial tail outlive the nodes it deletes), so the restored tree bounds
// the store index: a corrupt id is an error, not an allocation.
func restoreWhiteboard(tr *tree.Tree, st WhiteboardState, counters *stats.Counters) (*Whiteboard, error) {
	var top tree.NodeID
	for _, ns := range st.Stores {
		if !tr.Contains(ns.Node) && !tr.WasDeleted(ns.Node) {
			return nil, fmt.Errorf("controller: restore store of node %d: %w", ns.Node, tree.ErrNoSuchNode)
		}
		top = max(top, ns.Node)
	}
	wb := &Whiteboard{
		tr:         tr,
		root:       tr.Root(),
		params:     pkgstore.NewParams(st.U, st.M, st.W),
		storage:    st.Storage,
		serials:    pkgstore.Interval{Lo: st.SerialLo, Hi: st.SerialHi},
		counters:   counters,
		noRejects:  st.NoRejects,
		rejectWave: st.RejectWave,
		granted:    st.Granted,
		rejected:   st.Rejected,
		linkEpoch:  tr.ExpressEpoch(),
	}
	wb.bands = fillerBands(wb.params.Psi)
	wb.resize(int(top) + 1)
	for _, ns := range st.Stores {
		restored, err := pkgstore.RestoreStore(ns.Store)
		if err != nil {
			return nil, fmt.Errorf("controller: restore store of node %d: %w", ns.Node, err)
		}
		s := wb.stores.At(ns.Node)
		if s.Present() {
			return nil, fmt.Errorf("controller: restore store of node %d: %w", ns.Node, tree.ErrAlreadyExists)
		}
		*s = restored
		wb.remask(ns.Node, s)
	}
	return wb, nil
}
