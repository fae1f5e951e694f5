package persist_test

import (
	"bytes"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// fuzzState builds a small but non-trivial captured state for the snapshot
// seeds (a real stack with a few grants behind it).
func fuzzState() *persist.State {
	tr, root := tree.New()
	rt, err := sim.NewRuntime("fifo", 1)
	if err != nil {
		panic(err)
	}
	ctl := dist.Over(rt).NewDynamic(tr, 64, 16)
	for i := 0; i < 6; i++ {
		if _, err := ctl.Submit(controller.Request{Node: root, Kind: tree.AddLeaf}); err != nil {
			panic(err)
		}
	}
	return &persist.State{
		Index:       6,
		Incarnation: 1,
		M:           64,
		W:           16,
		Tree:        tr.Snapshot(),
		Ctl:         ctl.State(),
		Counters:    ctl.Counters().Snapshot(),
	}
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the WAL block decoder: it
// must never panic or over-allocate, and decode→encode→decode must be a
// fixed point on anything it accepts (non-minimal varints in a valid
// frame decode, so strict canonicality is checked via idempotence).
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add(persist.AppendRecords(nil, []persist.Record{
		{Index: 1, Type: persist.RecEffect, Node: 1, Kind: tree.AddLeaf,
			Outcome: controller.Granted, Serial: 7, NewNode: 2},
		{Index: 2, Type: persist.RecEffect, Node: 5, Kind: tree.None,
			Outcome: controller.Rejected},
		{Index: 3, Type: persist.RecWave, Granted: 120},
	}))
	// Two blocks back to back with trailing garbage.
	two := persist.AppendRecords(nil, []persist.Record{{
		Index: 4, Type: persist.RecEffect, Node: 9, Kind: tree.RemoveLeaf,
		Outcome: controller.Granted,
	}})
	two = persist.AppendRecords(two, []persist.Record{{Index: 5, Type: persist.RecWave, Granted: 1}})
	f.Add(append(two, 0xde, 0xad))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := persist.DecodeWALRecords(data, nil)
		if err != nil {
			return
		}
		if n < 8 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		if len(recs) == 0 {
			return
		}
		enc1 := persist.AppendRecords(nil, recs)
		recs2, _, err := persist.DecodeWALRecords(enc1, nil)
		if err != nil {
			t.Fatalf("re-encoded accepted block fails to decode: %v", err)
		}
		enc2 := persist.AppendRecords(nil, recs2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("block codec is not idempotent on an accepted input")
		}
	})
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder: no
// panics, no unbounded allocations, and decode→encode→decode must be a
// fixed point for anything it accepts. What decodes is then restored the
// way boot recovery does it, which must fail or succeed within the memory
// the input paid for: the tree and the whiteboards index by node id, so an
// id nothing bounds would become an allocation.
func FuzzDecodeSnapshot(f *testing.F) {
	st := fuzzState()
	canonical := persist.AppendState(nil, st)
	f.Add(canonical)
	// The out-of-range values below are variables, not constants, so the
	// seeds build where int is 32 bits; there the int fields wrap, and the
	// seed is refused for that instead.
	hugeID, widePort := int64(1)<<40, int64(tree.MaxPort)+1
	// A well-formed snapshot (checksum and all) whose tree agrees with
	// itself that its newest node has id 2^40, and one whose whiteboards
	// hold a store for that id.
	huge := fuzzState()
	nodes := huge.Tree.Nodes
	newest := &nodes[len(nodes)-1]
	kids := nodes[0].Children
	kids[len(kids)-1], newest.ID = 1<<40, 1<<40
	huge.Tree.NextID, huge.Tree.EverExisted = 1<<40+1, int(hugeID)
	f.Add(persist.AppendState(nil, huge))
	huge = fuzzState()
	stores := huge.Ctl.Inner.Board.Stores
	stores[len(stores)-1].Node = 1 << 40
	f.Add(persist.AppendState(nil, huge))
	// A well-formed snapshot in which a node reaches its parent through a
	// port the node table cannot hold: the tree refuses it, and nothing may
	// restore a truncated port in its place.
	wide := fuzzState()
	wide.Tree.Nodes[1].ParentPort = int(widePort)
	f.Add(persist.AppendState(nil, wide))
	// Flip a payload byte: the checksum must catch it.
	corrupt := append([]byte(nil), canonical...)
	corrupt[len(corrupt)-3] ^= 0x40
	f.Add(corrupt)
	f.Add(canonical[:len(canonical)/2])
	f.Add([]byte("DSNP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := persist.DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc1 := persist.AppendState(nil, st)
		st2, err := persist.DecodeSnapshot(enc1)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot fails to decode: %v", err)
		}
		enc2 := persist.AppendState(nil, st2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("snapshot codec is not idempotent on an accepted input")
		}
		tr, _ := tree.New()
		ctrs, err := persist.RestoreInto(st, tr)
		if err != nil {
			return
		}
		back := *st
		back.Tree = tr.Snapshot()
		if !bytes.Equal(persist.AppendState(nil, &back), enc1) {
			t.Fatal("the restored tree encodes differently from the snapshot it was restored from")
		}
		if _, err := controller.Centralized.RestoreDynamic(tr, st.Ctl, ctrs); err != nil {
			return
		}
		if tr.Size() > len(data) {
			t.Fatalf("a %d-byte snapshot restored a tree of %d nodes", len(data), tr.Size())
		}
	})
}
