package controller

import (
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"dynctrl/internal/pkgstore"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// CheckMasks recomputes, for every id of the controller's current
// whiteboards, the level mask from the store it summarises and compares it
// with the one the whiteboards keep. It returns the union of the masks, so a
// test can tell a run that exercised the mobile levels from a vacuous one.
// Beside the masks it holds the store table to its meaning: an entry without
// a store is the zero value, and outside the trivial tail, which changes the
// tree beside whiteboards it no longer keeps up, the ids with a store are
// exactly the live nodes. And it holds the block counts to a recount
// (CheckBlocks) and, outside the trivial tail, to being known good at the
// tree's current express epoch: every change went through Grant, and none
// may have cost a count in full.
func (d *Dynamic) CheckMasks() (levels uint32, err error) {
	wb := d.inner.wb
	if len(wb.masks) != wb.stores.Len() {
		return 0, fmt.Errorf("%d masks for %d stores", len(wb.masks), wb.stores.Len())
	}
	if err := d.CheckBlocks(); err != nil {
		return 0, err
	}
	if !d.inner.st.TrivialPhase && wb.linkEpoch != wb.tr.ExpressEpoch() {
		return 0, fmt.Errorf("block counts known good at express epoch %d, the tree is at %d", wb.linkEpoch, wb.tr.ExpressEpoch())
	}
	for id, s := range wb.stores.All() {
		var want uint32
		if s.Present() {
			for _, pk := range s.Mobiles() {
				want |= 1 << min(uint(pk.Level), 31)
			}
		} else if !s.Empty() {
			return 0, fmt.Errorf("node %d: no store, yet packages or a reject flag in its table entry", id)
		}
		if wb.masks[id] != want {
			return 0, fmt.Errorf("node %d: mask %#b, the mobile levels of its store give %#b", id, wb.masks[id], want)
		}
		if !d.inner.st.TrivialPhase && s.Present() != wb.tr.Contains(id) {
			return 0, fmt.Errorf("node %d: store present %v, node live %v", id, s.Present(), wb.tr.Contains(id))
		}
		levels |= want
	}
	return levels, nil
}

// CheckBlocks counts the block rows again, from the masks and the tree's
// express links as they are, and compares with the rows the whiteboards keep:
// never nil, zero, or beyond the slice, at every stop that counts no mark,
// and every counter exact or stuck at 255, so that a zero proves its levels
// absent from the block.
func (d *Dynamic) CheckBlocks() error {
	wb := d.inner.wb
	if wb.blocks == nil {
		return fmt.Errorf("nil block rows, which a climb reads as none kept")
	}
	counts := make([][8]int, max(len(wb.blocks), wb.tr.EverExisted()+1))
	for id, m := range wb.masks {
		r := wb.tr.Express(tree.NodeID(id))
		for k := range 8 {
			if k < 7 && m>>k&1 != 0 || k == 7 && m>>7 != 0 {
				counts[r][k]++
			}
		}
	}
	for r, want := range counts {
		var row uint64
		if r < len(wb.blocks) {
			row = wb.blocks[r]
		}
		for k, n := range want {
			if got := int(uint8(row >> (8 * k))); got != n && got != 0xff {
				return fmt.Errorf("stop %d: row %#016x counts %d in byte %d, the masks and the express links give %d",
					r, row, got, k, n)
			}
		}
	}
	return nil
}

// Board returns the whiteboards of the current iteration.
func (d *Dynamic) Board() *Whiteboard { return d.inner.wb }

// HoldsTables reports whether wb still owns per-node tables; whiteboards an
// iteration restart has discarded must not.
func (wb *Whiteboard) HoldsTables() bool {
	return wb.stores.Len() != 0 || wb.masks != nil || wb.blocks != nil
}

// InnerIterations returns how many waste-halving iterations the current
// inner driver has started.
func (d *Dynamic) InnerIterations() int { return d.inner.st.Iterations }

// CheckRecycled builds the whiteboards of a new iteration over the current
// tree twice, once over the tables of a used whiteboard (a copy of the
// current one with everything it holds) and once over none, and reports
// whatever of the used one shows through: the recycled whiteboards must list
// exactly the live nodes, every store empty, every mask clear, no store at an
// id without a node, and be deeply equal to the fresh ones.
func (d *Dynamic) CheckRecycled() error {
	wb := d.inner.wb
	used, err := restoreWhiteboard(wb.tr, wb.state(), stats.NewCounters())
	if err != nil {
		return fmt.Errorf("copying the current whiteboards: %w", err)
	}
	p := wb.params
	fresh := newWhiteboard(wb.tr, p.U, p.M, p.W, nil)
	recycled := newWhiteboard(wb.tr, p.U, p.M, p.W, used)
	if used.HoldsTables() {
		return fmt.Errorf("the discarded whiteboards keep their tables")
	}
	if recycled.stores.Len() != fresh.stores.Len() || len(recycled.masks) != len(fresh.masks) {
		return fmt.Errorf("recycled tables hold %d stores and %d masks, fresh ones %d and %d",
			recycled.stores.Len(), len(recycled.masks), fresh.stores.Len(), len(fresh.masks))
	}
	if slices.ContainsFunc(recycled.blocks, func(row uint64) bool { return row != 0 }) || recycled.blocks == nil {
		return fmt.Errorf("recycled block counts %v", recycled.blocks)
	}
	var listed []tree.NodeID
	for id, s := range recycled.stores.All() {
		switch {
		case recycled.masks[id] != 0:
			return fmt.Errorf("node %d: recycled mask %#b", id, recycled.masks[id])
		case !s.Empty():
			return fmt.Errorf("node %d: recycled store holds %+v", id, s.State())
		case s.Present():
			listed = append(listed, id)
		}
	}
	if nodes := wb.tr.Nodes(); !slices.Equal(listed, nodes) {
		return fmt.Errorf("recycled whiteboards hold stores for %v, the tree has nodes %v", listed, nodes)
	}
	if got, want := recycled.state(), fresh.state(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("recycled whiteboards capture as %+v, fresh ones as %+v", got, want)
	}
	return nil
}

// MaskAt returns the level mask the current whiteboards keep for id.
func (d *Dynamic) MaskAt(id tree.NodeID) uint32 { return d.inner.wb.maskAt(id) }

// FindFiller runs the centralized core's filler search from u over the
// current whiteboards, as a slow-path request at u would.
func (d *Dynamic) FindFiller(u tree.NodeID) (tree.NodeID, int64, *pkgstore.Package, error) {
	return d.inner.core.(*Core).findFiller(u)
}

// BlockAt returns the row the current whiteboards keep for the express stop
// r, none for a stop beyond the slice.
func (d *Dynamic) BlockAt(r tree.NodeID) uint64 {
	if wb := d.inner.wb; int(r) < len(wb.blocks) {
		return wb.blocks[r]
	}
	return 0
}

// FillerTests reports whether a request at u would search for a filler now,
// the core running, u live and holding neither a reject nor a static
// package, and if so runs that search as findFiller does and returns how
// many filler tests it made.
func (d *Dynamic) FillerTests(u tree.NodeID) (tests int, searched bool) {
	in := d.inner
	c, ok := in.core.(*Core)
	if !ok || d.st.Terminated || d.st.RejectAll || in.st.Terminated || in.st.RejectAll || in.st.TrivialPhase {
		return 0, false
	}
	if s := c.lookup(u); s == nil || !c.tr.Contains(u) || s.HasReject() || s.Static() != nil {
		return 0, false
	}
	c.syncBlocks()
	if _, _, err := c.tr.ClimbMarked(u, c.bands, c.masks, c.blocks, func(w tree.NodeID, d int) bool {
		tests++
		return c.Filler(w, int64(d)) != nil
	}); err != nil {
		return 0, false
	}
	return tests, true
}

// DerivedBytes returns the bytes the current whiteboards hold in level masks
// and in block rows, and the number of masks.
func (d *Dynamic) DerivedBytes() (masks, rows, ids int) {
	wb := d.inner.wb
	return int(unsafe.Sizeof(wb.masks[0])) * len(wb.masks), int(unsafe.Sizeof(wb.blocks[0])) * len(wb.blocks), len(wb.masks)
}

// MoveDown is the core's accounting of one move of pk.
func (c *Core) MoveDown(pk pkgstore.Package, host, target tree.NodeID, dist int64) {
	c.moveDown(pk.Size, host, target, dist)
}

// CheckDomainPackages holds every domain the tracker keeps to the package it
// names: exactly one mobile package of the domain's level, in the store of
// the domain's host, carries the domain's tag, and no package anywhere
// carries a tag twice over.
func (c *Core) CheckDomainPackages() error {
	type place struct {
		id    tree.NodeID
		level int
	}
	where := make(map[uint32]place)
	for id, s := range c.stores.All() {
		for _, pk := range s.Mobiles() {
			if pk.Tag == 0 {
				continue
			}
			if at, dup := where[pk.Tag]; dup {
				return fmt.Errorf("tag %d on a package at %d and at %d", pk.Tag, at.id, id)
			}
			where[pk.Tag] = place{id, pk.Level}
		}
	}
	for tag, dom := range c.domains.domains {
		if at, ok := where[tag]; !ok || at != (place{dom.host, dom.level}) {
			return fmt.Errorf("level-%d domain hosted at %d: no level-%d package with its tag %d there",
				dom.level, dom.host, dom.level, tag)
		}
	}
	return nil
}

// InTrivialTail reports whether the W = 0 tail runs: the whiteboards were
// collected and cleared, and stay referenced beside it.
func (d *Dynamic) InTrivialTail() bool { return d.inner.st.TrivialPhase }

// Count returns the number of tracked domains.
func (d *DomainTracker) Count() int { return len(d.domains) }

// CheckInvariants verifies the three domain invariants and returns the
// first violation found, or nil.
func (d *DomainTracker) CheckInvariants() error {
	// Invariant 1: exact domain sizes.
	for _, dom := range d.domains {
		want := int(d.params.DomainSize(dom.level))
		if len(dom.members) != want {
			return fmt.Errorf("invariant 1: level-%d package domain has %d members, want %d",
				dom.level, len(dom.members), want)
		}
	}
	// Invariant 2: per-level disjointness.
	perLevel := make(map[int]map[tree.NodeID]struct{})
	for _, dom := range d.domains {
		seen, ok := perLevel[dom.level]
		if !ok {
			seen = make(map[tree.NodeID]struct{})
			perLevel[dom.level] = seen
		}
		for _, m := range dom.members {
			if _, dup := seen[m]; dup {
				return fmt.Errorf("invariant 2: node %d in two level-%d domains", m, dom.level)
			}
			seen[m] = struct{}{}
		}
	}
	// Invariant 3: existing members form a path hanging from a child of
	// the host.
	for _, dom := range d.domains {
		var existing []tree.NodeID
		for _, m := range dom.members {
			if d.tr.Contains(m) {
				existing = append(existing, m)
			}
		}
		if len(existing) == 0 {
			continue
		}
		p, err := d.tr.Parent(existing[0])
		if err != nil {
			return fmt.Errorf("invariant 3: %w", err)
		}
		if p != dom.host {
			return fmt.Errorf("invariant 3: top member %d hangs from %d, host is %d",
				existing[0], p, dom.host)
		}
		for i := 1; i < len(existing); i++ {
			p, err := d.tr.Parent(existing[i])
			if err != nil {
				return fmt.Errorf("invariant 3: %w", err)
			}
			if p != existing[i-1] {
				return fmt.Errorf("invariant 3: member %d not child of previous member %d",
					existing[i], existing[i-1])
			}
		}
	}
	return nil
}

// WithNoRejects is withNoRejects, for the external tests.
var WithNoRejects = withNoRejects

// Iterations, Terminated and State read the waste-halving driver's state.
func (it *Iterated) Iterations() int      { return it.st.Iterations }
func (it *Iterated) Terminated() bool     { return it.st.Terminated }
func (it *Iterated) State() IteratedState { return it.state() }

// Terminated reports whether a terminating controller has terminated.
func (d *Dynamic) Terminated() bool { return d.st.Terminated }

// HasRejectAt reports whether a reject package resides at the given node.
func (wb *Whiteboard) HasRejectAt(id tree.NodeID) bool {
	s := wb.lookup(id)
	return s != nil && s.HasReject()
}

func (wb *Whiteboard) ClearPackages() { wb.clearPackages() }
