package tree

import (
	"iter"
	"unsafe"
)

const (
	chunkBits = 9
	chunkLen  = 1 << chunkBits
)

// Table holds one value per node id, by value (or per any other dense
// index: the tree keeps its child lists in one). Ids count up and are never
// reused, so a table only ever grows at its end, and it grows in chunks of
// 512 entries that never move: growing copies nothing and abandons nothing,
// a table holds at most one chunk more than it needs whatever it has grown
// to, and a pointer to an entry stays good as long as the table. The tree
// keeps its nodes in one and the whiteboards their package stores; measured
// against a flat slice grown by half or doubled, it is what took the copies,
// the fresh pages under them and a megabyte of resident memory off a tree
// growing to 25 000 nodes (CHANGES.md, PR 19). The zero Table is empty.
type Table[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

// Len returns the number of entries: one more than the largest id the table
// has been grown to hold.
func (t *Table[T]) Len() int { return t.n }

// At returns the entry of id, which must be below Len.
func (t *Table[T]) At(id NodeID) *T {
	return &t.chunks[uint64(id)>>chunkBits][uint64(id)&(chunkLen-1)]
}

// All visits every entry with its id, in id order. The loop body may write
// the entry it is handed and must not grow or reset the table.
func (t *Table[T]) All() iter.Seq2[NodeID, *T] {
	return func(yield func(NodeID, *T) bool) {
		left := t.n
		for c, chunk := range t.chunks {
			for i := range chunk[:min(left, chunkLen)] {
				if !yield(NodeID(c<<chunkBits+i), &chunk[i]) {
					return
				}
			}
			if left -= chunkLen; left <= 0 {
				return
			}
		}
	}
}

// Bytes returns the bytes the table's chunks take, the entries not yet in
// use included.
func (t *Table[T]) Bytes() int {
	var zero T
	return len(t.chunks) * chunkLen * int(unsafe.Sizeof(zero))
}

// Grow extends the table to n entries, the new ones zero. A table that has
// n or more is left as it is.
func (t *Table[T]) Grow(n int) {
	if n <= t.n {
		return
	}
	for need := (n + chunkLen - 1) >> chunkBits; len(t.chunks) < need; {
		t.chunks = append(t.chunks, new([chunkLen]T))
	}
	t.n = n
}
