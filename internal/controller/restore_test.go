package controller_test

import (
	"errors"
	"reflect"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// TestRestoreRejectsStoreOfUnknownNode pins the bound the whiteboards put on
// their store index: it is as long as the largest id it holds, so a captured
// store must name a node of the restored tree. A corrupt id (2^40 would be a
// terabyte of index) is refused before anything is sized from it.
func TestRestoreRejectsStoreOfUnknownNode(t *testing.T) {
	tr, root := tree.New()
	d := ctl.NewDynamic(tr, 64, 16)
	for i := 0; i < 6; i++ {
		if _, err := d.Submit(ctl.Request{Node: root, Kind: tree.AddLeaf}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []tree.NodeID{1 << 40, tree.NodeID(tr.EverExisted()) + 1, 0, -3} {
		st := d.State()
		st.Inner.Board.Stores[len(st.Inner.Board.Stores)-1].Node = id
		if _, err := ctl.Centralized.RestoreDynamic(tr, st, d.Counters()); !errors.Is(err, tree.ErrNoSuchNode) {
			t.Fatalf("store of node %d: RestoreDynamic = %v, want %v", id, err, tree.ErrNoSuchNode)
		}
	}
	st := d.State()
	st.Inner.Board.Stores[1].Node = st.Inner.Board.Stores[0].Node
	if _, err := ctl.Centralized.RestoreDynamic(tr, st, d.Counters()); !errors.Is(err, tree.ErrAlreadyExists) {
		t.Fatalf("store listed twice: RestoreDynamic = %v, want %v", err, tree.ErrAlreadyExists)
	}
}

// TestRestoreKeepsTrivialTailStores covers the one state in which a captured
// store names a node the tree no longer holds: the W = 0 trivial tail applies
// changes without the whiteboards, so the stores of the last iteration
// outlive the nodes the tail deletes. Such a state must survive State →
// Restore → State unchanged.
func TestRestoreKeepsTrivialTailStores(t *testing.T) {
	tr, root := tree.New()
	var leaves []tree.NodeID
	for i := 0; i < 8; i++ {
		id, err := tr.ApplyAddLeaf(root)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, id)
	}
	it := ctl.NewIterated(tr, 64, 4096, 0)
	// One event at each of three leaves strands a static package there, so
	// the leaf hammered next exhausts its iteration with L > 0 and the tail
	// has permits to walk.
	for i := 0; !it.State().TrivialPhase; i++ {
		if i > 8192 {
			t.Fatal("the driver never entered the trivial tail")
		}
		if _, err := it.Submit(ctl.Request{Node: leaves[max(3-i, 0)], Kind: tree.None}); err != nil {
			t.Fatal(err)
		}
	}
	gone := leaves[7]
	if g, err := it.Submit(ctl.Request{Node: gone, Kind: tree.RemoveLeaf}); err != nil || g.Outcome != ctl.Granted {
		t.Fatalf("remove-leaf in the tail: %v, %v", g, err)
	}
	st := it.State()
	listed := false
	for _, ns := range st.Board.Stores {
		listed = listed || ns.Node == gone
	}
	if !listed {
		t.Fatal("scenario is vacuous: the deleted node's store is not captured")
	}
	// Iterated has no exported restore of its own; wrap the state the way
	// the durability engine sees it.
	d := ctl.NewDynamic(tr, 4096, 0).State()
	d.Inner = st
	back, err := ctl.Centralized.RestoreDynamic(tr, d, it.Counters())
	if err != nil {
		t.Fatalf("restore of a trivial-tail state: %v", err)
	}
	if got := back.State().Inner; !reflect.DeepEqual(got, st) {
		t.Fatalf("State → Restore → State changed the driver:\n got  %+v\n want %+v", got, st)
	}
	// It is also the one state in which the tables a restart takes over hold
	// a store at an id without a node: the next iteration must not see it.
	if err := back.CheckRecycled(); err != nil {
		t.Fatalf("whiteboards built over the tail's tables: %v", err)
	}
}
