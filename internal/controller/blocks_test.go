package controller

import (
	"testing"

	"dynctrl/internal/pkgstore"
	"dynctrl/internal/tree"
)

// TestBlockRowSaturates holds one block row to its counting rules: a counter
// per level, levels from 7 on sharing the top one, and a counter that
// reaches 255 stays there while marks leave, so it never reads zero over a
// mark, until a full count after the tree's express epoch moved makes it
// exact again, and a change that moves a marked node lifts and lands all of
// its counters. 300 leaves under the root all hang off the root's block.
func TestBlockRowSaturates(t *testing.T) {
	tr, root := tree.New()
	leaves := make([]tree.NodeID, 300)
	for i := range leaves {
		id, err := tr.ApplyAddLeaf(root)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = id
	}
	wb := newWhiteboard(tr, 1024, 1<<20, 1<<10, nil)
	row := func() uint64 { return wb.blocks[root] }
	for _, id := range leaves {
		wb.AddMobile(id, pkgstore.NewMobile(wb.params, 0))
	}
	wb.AddMobile(leaves[0], pkgstore.NewMobile(wb.params, 9))
	wb.AddMobile(leaves[1], pkgstore.NewMobile(wb.params, 7))
	wb.AddMobile(leaves[1], pkgstore.NewMobile(wb.params, 8))
	if want := uint64(2)<<56 | 0xff; row() != want {
		t.Fatalf("300 marks of level 0, one of levels 7 and 8 and one of 9: row %#016x, want %#016x", row(), want)
	}
	for _, id := range leaves[1:] {
		s := wb.Store(id)
		for len(s.Mobiles()) > 0 {
			if err := wb.RemoveMobile(id, &s.Mobiles()[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := uint64(1)<<56 | 0xff; row() != want {
		t.Fatalf("299 marks of level 0 gone: row %#016x, want %#016x, the level-0 counter stuck", row(), want)
	}
	if _, err := tr.ApplyAddInternal(leaves[0]); err != nil {
		t.Fatal(err)
	}
	wb.syncBlocks()
	if want := uint64(1)<<56 | 1; row() != want {
		t.Fatalf("counted again in full: row %#016x, want %#016x", row(), want)
	}
	// An edge split through the whiteboards lifts the marked leaf out of the
	// row and lands it back: it hangs off the root's block still.
	parent, err := tr.Parent(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.applyChange(Request{Node: parent, Kind: tree.AddInternal, Child: leaves[0]}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1)<<56 | 1; row() != want || wb.linkEpoch != tr.ExpressEpoch() {
		t.Fatalf("after a split above the marked leaf: row %#016x at epoch %d, want %#016x at the tree's %d",
			row(), wb.linkEpoch, want, tr.ExpressEpoch())
	}
}
