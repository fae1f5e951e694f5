package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/tree"
)

// Snapshot file layout:
//
//	[4]byte  magic   "DSNP"
//	uint16   format  (snapshotFormat)
//	uint64   payloadLen
//	uint32   crc32c(payload)
//	[]byte   payload (versioned binary State encoding)
//
// The payload is the fixed-width little-endian encoding of a State: the
// applied-index watermark, the admission contract, the complete tree
// snapshot, the controller.Dynamic driver stack including every node's
// package store, and the shared counters. Format 1 carries the
// PolicyChangesQuarter driver, the only one the daemon builds: the policy
// and the two tallies only PolicyDoubleMaxN reads are not on disk.
// Everything is emitted in sorted order, so identical states encode to
// identical bytes.

var snapshotMagic = [4]byte{'D', 'S', 'N', 'P'}

// snapshotFormat versions the State payload encoding.
const snapshotFormat = 1

// MaxSnapshotLen bounds a snapshot payload (1 GiB); a corrupt length field
// can never drive an absurd allocation.
const MaxSnapshotLen = 1 << 30

// State is everything the durability engine persists in one snapshot: the
// admission stack's complete state as of WAL index Index. Recovery loads
// the latest valid State and replays only the WAL records after Index.
type State struct {
	// Index is the WAL index of the last record applied to this state.
	Index uint64
	// Incarnation records which process incarnation captured the state.
	Incarnation uint64
	// M and W echo the admission contract (recovery refuses a snapshot
	// taken under a different contract).
	M, W int64

	Tree     *tree.Snapshot
	Ctl      *controller.DynamicState
	Counters map[string]int64
}

// enc is the append-only encoder shared by the snapshot codec.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is the bounds-checked cursor shared by the snapshot decoders.
type dec struct {
	p   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: snapshot: "+format, args...)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.p) {
		d.fail("truncated payload")
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.p) {
		d.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.p) {
		d.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }
func (d *dec) bool() bool { return d.u8() != 0 }

// int reads a 64-bit field into an int, refusing a value the platform's int
// cannot hold: where int is 32 bits, a bare conversion would wrap a corrupt
// value into range.
func (d *dec) int() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.u32()
	// Unsigned: where int is 32 bits, int(n) can be negative.
	if d.err != nil || uint64(n) > uint64(len(d.p)-d.off) {
		d.fail("truncated string")
		return ""
	}
	s := string(d.p[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a collection length and validates it against the bytes that
// remain, assuming each element occupies at least minBytes, so a hostile
// count cannot drive a large allocation.
func (d *dec) count(minBytes int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if uint64(n) > uint64((len(d.p)-d.off)/minBytes) {
		d.fail("collection of %d elements exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// AppendState appends the framed snapshot encoding of st to buf.
func AppendState(buf []byte, st *State) []byte {
	var e enc
	e.u64(st.Index)
	e.u64(st.Incarnation)
	e.i64(st.M)
	e.i64(st.W)
	appendTree(&e, st.Tree)
	appendDynamic(&e, st.Ctl)
	appendCounters(&e, st.Counters)

	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotFormat)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.b)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(e.b, castagnoli))
	return append(buf, e.b...)
}

func appendTree(e *enc, ts *tree.Snapshot) {
	e.u64(uint64(ts.Root))
	e.u64(uint64(ts.NextID))
	e.u64(ts.ChangeSeq)
	e.u64(uint64(ts.EverExisted))
	e.u32(uint32(len(ts.Deleted)))
	for _, id := range ts.Deleted {
		e.u64(uint64(id))
	}
	e.u32(uint32(len(ts.Nodes)))
	for _, n := range ts.Nodes {
		e.u64(uint64(n.ID))
		e.u64(uint64(n.Parent))
		e.i64(int64(n.ParentPort))
		e.u32(uint32(len(n.Children)))
		for i, c := range n.Children {
			e.u64(uint64(c))
			e.i64(int64(n.ChildPorts[i]))
		}
	}
}

func decodeTree(d *dec) *tree.Snapshot {
	ts := &tree.Snapshot{
		Root:        tree.NodeID(d.u64()),
		NextID:      tree.NodeID(d.u64()),
		ChangeSeq:   d.u64(),
		EverExisted: d.int(),
	}
	nDel := d.count(8)
	for i := 0; i < nDel && d.err == nil; i++ {
		ts.Deleted = append(ts.Deleted, tree.NodeID(d.u64()))
	}
	nNodes := d.count(8 + 8 + 8 + 4)
	for i := 0; i < nNodes && d.err == nil; i++ {
		n := tree.NodeSnapshot{
			ID:         tree.NodeID(d.u64()),
			Parent:     tree.NodeID(d.u64()),
			ParentPort: d.int(),
		}
		nKids := d.count(16)
		for j := 0; j < nKids && d.err == nil; j++ {
			n.Children = append(n.Children, tree.NodeID(d.u64()))
			n.ChildPorts = append(n.ChildPorts, d.int())
		}
		ts.Nodes = append(ts.Nodes, n)
	}
	return ts
}

func appendStore(e *enc, st pkgstore.StoreState) {
	e.bool(st.Reject)
	appendPackages := func(pkgs []pkgstore.Package) {
		e.u32(uint32(len(pkgs)))
		for _, pk := range pkgs {
			e.i64(int64(pk.Level))
			e.i64(pk.Size)
			e.bool(pk.Mobile)
			e.i64(pk.Serials.Lo)
			e.i64(pk.Serials.Hi)
		}
	}
	appendPackages(st.Statics)
	appendPackages(st.Mobiles)
}

func decodeStore(d *dec) pkgstore.StoreState {
	st := pkgstore.StoreState{Reject: d.bool()}
	decodePackages := func() []pkgstore.Package {
		n := d.count(8 + 8 + 1 + 8 + 8)
		var out []pkgstore.Package
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, pkgstore.Package{
				Level:   d.int(),
				Size:    d.i64(),
				Mobile:  d.bool(),
				Serials: pkgstore.Interval{Lo: d.i64(), Hi: d.i64()},
			})
		}
		return out
	}
	st.Statics = decodePackages()
	st.Mobiles = decodePackages()
	return st
}

func appendCore(e *enc, c controller.WhiteboardState) {
	e.i64(c.U)
	e.i64(c.M)
	e.i64(c.W)
	e.i64(c.Storage)
	e.i64(c.SerialLo)
	e.i64(c.SerialHi)
	e.i64(c.Granted)
	e.i64(c.Rejected)
	e.bool(c.NoRejects)
	e.bool(c.RejectWave)
	e.u32(uint32(len(c.Stores)))
	for _, ns := range c.Stores {
		e.u64(uint64(ns.Node))
		appendStore(e, ns.Store)
	}
}

func decodeCore(d *dec) controller.WhiteboardState {
	c := controller.WhiteboardState{
		U:          d.i64(),
		M:          d.i64(),
		W:          d.i64(),
		Storage:    d.i64(),
		SerialLo:   d.i64(),
		SerialHi:   d.i64(),
		Granted:    d.i64(),
		Rejected:   d.i64(),
		NoRejects:  d.bool(),
		RejectWave: d.bool(),
	}
	n := d.count(8 + 1 + 4 + 4)
	for i := 0; i < n && d.err == nil; i++ {
		node := tree.NodeID(d.u64())
		c.Stores = append(c.Stores, controller.NodeStoreState{Node: node, Store: decodeStore(d)})
	}
	return c
}

func appendDynamic(e *enc, st *controller.DynamicState) {
	e.i64(st.W)
	e.i64(st.Mi)
	e.i64(st.Ui)
	e.i64(st.Zi)
	e.i64(st.GrantedBase)
	e.i64(int64(st.Iterations))
	e.bool(st.Terminating)
	e.bool(st.Terminated)
	e.bool(st.RejectAll)

	it := st.Inner
	e.i64(it.U)
	e.i64(it.W)
	e.i64(it.CurM)
	e.i64(int64(it.Iterations))
	e.bool(it.FinalPhase)
	e.bool(it.Terminating)
	e.bool(it.TrivialPhase)
	e.i64(it.TrivialLeft)
	e.bool(it.Terminated)
	e.bool(it.RejectAll)
	e.i64(it.Granted)
	appendCore(e, it.Board)
}

func decodeDynamic(d *dec) *controller.DynamicState {
	st := &controller.DynamicState{
		W:           d.i64(),
		Mi:          d.i64(),
		Ui:          d.i64(),
		Zi:          d.i64(),
		GrantedBase: d.i64(),
		Iterations:  d.int(),
		Terminating: d.bool(),
		Terminated:  d.bool(),
		RejectAll:   d.bool(),
		Policy:      controller.PolicyChangesQuarter,
	}
	st.Inner = controller.IteratedState{
		U:            d.i64(),
		W:            d.i64(),
		CurM:         d.i64(),
		Iterations:   d.int(),
		FinalPhase:   d.bool(),
		Terminating:  d.bool(),
		TrivialPhase: d.bool(),
		TrivialLeft:  d.i64(),
		Terminated:   d.bool(),
		RejectAll:    d.bool(),
		Granted:      d.i64(),
	}
	st.Inner.Board = decodeCore(d)
	return st
}

func appendCounters(e *enc, counters map[string]int64) {
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, k := range names {
		e.str(k)
		e.i64(counters[k])
	}
}

func decodeCounters(d *dec) map[string]int64 {
	n := d.count(4 + 8)
	out := make(map[string]int64, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		out[k] = d.i64()
	}
	return out
}

// DecodeSnapshot decodes a framed snapshot. Any framing, checksum or field
// error is returned; a valid frame always yields a structurally complete
// State (tree validity is established later, by Restore).
func DecodeSnapshot(p []byte) (*State, error) {
	if len(p) < 4+2+8+4 {
		return nil, fmt.Errorf("persist: snapshot header truncated")
	}
	if [4]byte(p[:4]) != snapshotMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", p[:4])
	}
	format := binary.LittleEndian.Uint16(p[4:])
	if format != snapshotFormat {
		return nil, fmt.Errorf("persist: snapshot format %d, this build reads %d", format, snapshotFormat)
	}
	n := binary.LittleEndian.Uint64(p[6:])
	crc := binary.LittleEndian.Uint32(p[14:])
	if n > MaxSnapshotLen {
		return nil, fmt.Errorf("persist: snapshot payload %d exceeds limit", n)
	}
	payload := p[18:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("persist: snapshot payload %d bytes, header declares %d", len(payload), n)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	d := &dec{p: payload}
	st := &State{
		Index:       d.u64(),
		Incarnation: d.u64(),
		M:           d.i64(),
		W:           d.i64(),
	}
	st.Tree = decodeTree(d)
	st.Ctl = decodeDynamic(d)
	st.Counters = decodeCounters(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("persist: snapshot has %d trailing payload bytes", len(payload)-d.off)
	}
	return st, nil
}
