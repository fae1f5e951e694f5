package tree

import (
	"testing"
	"unsafe"
)

// TestNodeIsOneCacheLine pins the size the node table's layout rests on: an
// entry holds no slice header and no pointer, and takes at most two 64-bit
// words (two 32-bit fields, 8 bytes on every word size), so a cache line
// holds eight entries and a chunk of the table 4 KiB.
func TestNodeIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 2*8 {
		t.Fatalf("a node takes %d bytes, want at most 16", size)
	}
}

// TestTable holds a Table to what its users rely on: entries start zero, keep
// their address while the table grows and are visited once each in id order
// whatever the length is against the chunk size.
func TestTable(t *testing.T) {
	type entry struct {
		id  NodeID
		set bool
	}
	var tb Table[entry]
	if tb.Len() != 0 {
		t.Fatalf("the zero table has %d entries", tb.Len())
	}
	for range tb.All() {
		t.Fatal("the zero table visits an entry")
	}
	fill := func(from, to int) {
		t.Helper()
		tb.Grow(to)
		if tb.Len() != to {
			t.Fatalf("Grow(%d) left %d entries", to, tb.Len())
		}
		for id := NodeID(from); id < NodeID(to); id++ {
			if e := tb.At(id); *e != (entry{}) {
				t.Fatalf("entry %d uncovered by Grow(%d) holds %+v", id, to, *e)
			}
			*tb.At(id) = entry{id: id, set: true}
		}
	}
	visit := func(want int) {
		t.Helper()
		next := NodeID(0)
		for id, e := range tb.All() {
			if id != next || *e != (entry{id: id, set: true}) || e != tb.At(id) {
				t.Fatalf("visit %d of %d: id %d holding %+v", next, want, id, *e)
			}
			next++
		}
		if int(next) != want {
			t.Fatalf("All visited %d entries of %d", next, want)
		}
	}
	fill(0, 3)
	first := tb.At(1)
	at := 3
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen - 1, 3 * chunkLen, 5*chunkLen + 7} {
		fill(at, n)
		at = n
		visit(n)
		if tb.At(1) != first {
			t.Fatalf("entry 1 moved when the table grew to %d", n)
		}
	}
	tb.Grow(10) // no shrinking
	if tb.Len() != at {
		t.Fatalf("Grow(10) changed the length from %d to %d", at, tb.Len())
	}
	for id, e := range tb.All() {
		if id == 2 {
			e.set = false // the loop may write the entry it is handed
			break
		}
	}
	if tb.At(2).set {
		t.Fatal("a write through All's entry did not reach the table")
	}

}
