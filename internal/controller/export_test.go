package controller

import (
	"fmt"

	"dynctrl/internal/tree"
)

// CheckMasks recomputes, for every id of the controller's current
// whiteboards, the level mask from the store it summarises and compares it
// with the one the whiteboards keep. It returns the union of the masks, so a
// test can tell a run that exercised the mobile levels from a vacuous one.
func (d *Dynamic) CheckMasks() (levels uint64, err error) {
	wb := d.inner.wb
	if len(wb.masks) != len(wb.stores) {
		return 0, fmt.Errorf("%d masks for %d stores", len(wb.masks), len(wb.stores))
	}
	for id, s := range wb.stores {
		var want uint64
		if s != nil {
			for _, pk := range s.Mobiles() {
				want |= 1 << min(uint(pk.Level), 63)
			}
		}
		if wb.masks[id] != want {
			return 0, fmt.Errorf("node %d: mask %#b, the mobile levels of its store give %#b", id, wb.masks[id], want)
		}
		levels |= want
	}
	return levels, nil
}

// MaskAt returns the level mask the current whiteboards keep for id.
func (d *Dynamic) MaskAt(id tree.NodeID) uint64 {
	if wb := d.inner.wb; uint64(id) < uint64(len(wb.masks)) {
		return wb.masks[id]
	}
	return 0
}

// InTrivialTail reports whether the W = 0 tail runs: the whiteboards were
// collected and cleared, and stay referenced beside it.
func (d *Dynamic) InTrivialTail() bool { return d.inner.trivialPhase }
