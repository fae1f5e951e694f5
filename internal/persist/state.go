package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

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

var snapshotMagic = [4]byte{'D', 'S', 'N', 'P'}

// snapshotFormat versions the State payload encoding. Format 2 dropped the
// tree's port numbers, which the tree computes from each edge; the decoder
// still reads format 1, skipping its port words, so a directory written at
// format 1 recovers and its next checkpoint is written at format 2.
const snapshotFormat = 2

// snapshotHeaderLen is the byte length of the frame before the payload.
const snapshotHeaderLen = 4 + 2 + 8 + 4

// maxSnapshotLen bounds a snapshot payload (1 GiB); a corrupt length field
// can never drive an absurd allocation.
const maxSnapshotLen = 1 << 30

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

// codec carries a State payload one way: encoding, it appends each field
// to b; reading, it reads each from b at off into the field it is handed.
// Every read is bounds-checked and the first error sticks, after which
// reads leave their fields zero.
type codec struct {
	b       []byte
	off     int
	reading bool
	format  uint16 // the payload's format; written payloads are snapshotFormat
	err     error
}

// errTruncated is the error of a payload that ends before its fields do.
var errTruncated = errors.New("persist: snapshot: truncated payload")

// take returns the next n payload bytes, or nil once they run out.
func (c *codec) take(n int) []byte {
	if c.err != nil || len(c.b)-c.off < n {
		if c.err == nil {
			c.err = errTruncated
		}
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// word carries a 64-bit field.
func word[T ~int64 | ~uint64](c *codec, v *T) {
	if !c.reading {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if p := c.take(8); p != nil {
		*v = T(binary.LittleEndian.Uint64(p))
	}
}

// int carries an int as an int64 word. Reading refuses a value the
// platform's int cannot hold: where int is 32 bits, a bare conversion would
// wrap a corrupt value into range. It is the codec's one conversion of a
// 64-bit field to int; TestCodecNarrowsOnlyInInt refuses any other.
func (c *codec) int(v *int) {
	w := int64(*v)
	word(c, &w)
	if c.reading {
		if int64(int(w)) != w { // only a value just read can overflow: c.err is nil
			c.err = fmt.Errorf("persist: snapshot: value %d overflows int", w)
		}
		*v = int(w)
	}
}

func (c *codec) bool(v *bool) {
	if !c.reading {
		b := byte(0)
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
	} else if p := c.take(1); p != nil {
		*v = p[0] != 0
	}
}

// count carries a length n as a uint32; reading returns the length read.
// A read length is checked against the bytes that remain, assuming each
// element occupies at least minBytes, and compared unsigned (where int is
// 32 bits, int of a uint32 can be negative), so a hostile length can
// neither drive a large allocation nor slice out of range.
func (c *codec) count(n, minBytes int) int {
	if !c.reading {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(n))
		return n
	}
	p := c.take(4)
	if p == nil {
		return 0
	}
	m := binary.LittleEndian.Uint32(p)
	if uint64(m) > uint64((len(c.b)-c.off)/minBytes) {
		c.err = fmt.Errorf("persist: snapshot: %d elements of %d bytes exceed the remaining payload", m, minBytes)
		return 0
	}
	return int(m)
}

func (c *codec) str(v *string) {
	n := c.count(len(*v), 1)
	if !c.reading {
		c.b = append(c.b, *v...)
	} else if p := c.take(n); p != nil {
		*v = string(p)
	}
}

// list carries *s: its count, then each element through elem, each
// element occupying at least minBytes. Reading makes *s once, as long as
// its checked count (nil when that is 0).
func list[T any](c *codec, s *[]T, minBytes int, elem func(*T)) {
	n := c.count(len(*s), minBytes)
	if c.reading && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(&(*s)[i])
	}
}

// The layouts below are the payload format. Each lists its type's fields
// once, in payload order, and AppendState and DecodeSnapshot both run them.
// Fields are fixed-width little-endian: a uint64, int64, int or node id is
// 8 bytes, a bool 1, a count 4 (a uint32 before its elements), and a string
// its count and bytes. The payload is the State header, then the tree,
// then the controller.Dynamic driver stack down to every node's package
// store, then the counters. The payload carries the PolicyChangesQuarter
// driver, the only one the daemon builds: the policy and the two tallies
// only PolicyDoubleMaxN reads are not on disk. Lists keep their sorted
// order and counters are sorted by name, so identical states encode to
// identical bytes.

func (c *codec) state(st *State) {
	word(c, &st.Index)
	word(c, &st.Incarnation)
	word(c, &st.M)
	word(c, &st.W)
	if c.reading {
		st.Tree, st.Ctl = new(tree.Snapshot), new(controller.DynamicState)
	}
	c.tree(st.Tree)
	c.dynamic(st.Ctl)
	c.counters(&st.Counters)
}

// tree carries a node as its id, its parent and its children's ids. Format 1
// followed the parent with the port toward it and each child with the port
// toward that child, one word each, which a read skips: the tree computes
// its ports.
func (c *codec) tree(ts *tree.Snapshot) {
	port := 0 // the bytes of a port word: 8 in format 1, none since
	if c.format == 1 {
		port = 8
	}
	word(c, &ts.Root)
	word(c, &ts.NextID)
	word(c, &ts.ChangeSeq)
	c.int(&ts.EverExisted)
	list(c, &ts.Deleted, 8, func(id *tree.NodeID) { word(c, id) })
	list(c, &ts.Nodes, 8+8+port+4, func(n *tree.NodeSnapshot) {
		word(c, &n.ID)
		word(c, &n.Parent)
		c.take(port)
		list(c, &n.Children, 8+port, func(id *tree.NodeID) {
			word(c, id)
			c.take(port)
		})
	})
}

func (c *codec) dynamic(st *controller.DynamicState) {
	word(c, &st.W)
	word(c, &st.Mi)
	word(c, &st.Ui)
	word(c, &st.Zi)
	word(c, &st.GrantedBase)
	c.int(&st.Iterations)
	c.bool(&st.Terminating)
	c.bool(&st.Terminated)
	c.bool(&st.RejectAll)
	if c.reading {
		st.Policy = controller.PolicyChangesQuarter
	}

	it := &st.Inner
	word(c, &it.U)
	word(c, &it.W)
	word(c, &it.CurM)
	c.int(&it.Iterations)
	c.bool(&it.FinalPhase)
	c.bool(&it.Terminating)
	c.bool(&it.TrivialPhase)
	word(c, &it.TrivialLeft)
	c.bool(&it.Terminated)
	c.bool(&it.RejectAll)
	word(c, &it.Granted)
	c.whiteboard(&it.Board)
}

func (c *codec) whiteboard(wb *controller.WhiteboardState) {
	word(c, &wb.U)
	word(c, &wb.M)
	word(c, &wb.W)
	word(c, &wb.Storage)
	word(c, &wb.SerialLo)
	word(c, &wb.SerialHi)
	word(c, &wb.Granted)
	word(c, &wb.Rejected)
	c.bool(&wb.NoRejects)
	c.bool(&wb.RejectWave)
	list(c, &wb.Stores, 8+1+4+4, func(ns *controller.NodeStoreState) {
		word(c, &ns.Node)
		c.store(&ns.Store)
	})
}

func (c *codec) store(st *pkgstore.StoreState) {
	c.bool(&st.Reject)
	list(c, &st.Statics, 8+8+1+8+8, c.pkg)
	list(c, &st.Mobiles, 8+8+1+8+8, c.pkg)
}

func (c *codec) pkg(pk *pkgstore.Package) {
	c.int(&pk.Level)
	word(c, &pk.Size)
	c.bool(&pk.Mobile)
	word(c, &pk.Serials.Lo)
	word(c, &pk.Serials.Hi)
}

func (c *codec) counters(m *map[string]int64) {
	names := slices.Sorted(maps.Keys(*m))
	if c.reading {
		*m = make(map[string]int64)
	}
	list(c, &names, 4+8, func(name *string) {
		c.str(name)
		v := (*m)[*name]
		word(c, &v)
		if c.reading {
			(*m)[*name] = v
		}
	})
}

// AppendState appends the framed snapshot encoding of st to buf.
func AppendState(buf []byte, st *State) []byte {
	start := len(buf)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotFormat)
	buf = append(buf, make([]byte, 8+4)...) // the length and checksum, set below
	c := codec{b: buf, format: snapshotFormat}
	c.state(st)
	payload := c.b[start+snapshotHeaderLen:]
	binary.LittleEndian.PutUint64(c.b[start+6:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(c.b[start+14:], crc32c(payload))
	return c.b
}

// DecodeSnapshot decodes a framed snapshot of format 1 or 2. Any framing,
// checksum or field error is returned; a valid frame always yields a
// structurally complete State (tree validity is established later, by
// Restore).
func DecodeSnapshot(p []byte) (*State, error) {
	if len(p) < snapshotHeaderLen {
		return nil, fmt.Errorf("persist: snapshot header truncated")
	}
	if [4]byte(p[:4]) != snapshotMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", p[:4])
	}
	format := binary.LittleEndian.Uint16(p[4:])
	if format != 1 && format != snapshotFormat {
		return nil, fmt.Errorf("persist: snapshot format %d, this build reads 1 and %d", format, snapshotFormat)
	}
	n := binary.LittleEndian.Uint64(p[6:])
	if n > maxSnapshotLen {
		return nil, fmt.Errorf("persist: snapshot payload %d exceeds limit", n)
	}
	payload := p[snapshotHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("persist: snapshot payload %d bytes, header declares %d", len(payload), n)
	}
	if crc32c(payload) != binary.LittleEndian.Uint32(p[14:]) {
		return nil, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	c := codec{b: payload, reading: true, format: format}
	st := new(State)
	c.state(st)
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("persist: snapshot has %d trailing payload bytes", len(payload)-c.off)
	}
	return st, nil
}
