package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// WAL framing. Records are packed into *blocks*; a group-commit wave is
// one block, or several when its packed bytes pass the seal bound:
//
//	uint32  payloadLen   (little-endian)
//	uint32  crc32c(payload)
//	payload:
//	  uint64  firstIndex   (WAL index of the first record)
//	  uint32  count
//	  count × packed record
//
// A packed record is a tag byte plus uvarint fields, and omits everything
// the common case doesn't need — the index (positional: firstIndex + i),
// a zero serial, an absent new-node id, an absent child. The pinned event
// workload's grant record packs to 3 bytes, which matters: the WAL is an
// fsynced byte stream, so sustained admission throughput is bounded by
// the disk's synchronous write bandwidth divided by the bytes per record.
// Per-wave (not per-record) length+CRC framing amortizes the overhead the
// same way the fsync itself is amortized.
//
// The tag byte is
//
//	bits 0-2  tree.ChangeKind (0-4), or 7 for a format-1 wave marker
//	bit  3    rejected (grant otherwise)
//	bit  4    serial follows
//	bit  5    new-node id follows
//	bit  6    child id follows
//
// A torn block (crash mid-write) either ends short or fails its CRC, and
// recovery truncates the log at the block boundary.

// RecordType tags one decoded WAL record.
type RecordType uint8

// Record types.
const (
	// RecEffect is one decided request: the request fields plus the
	// grant/reject verdict the controller answered (errored requests mutate
	// no state and are not logged).
	RecEffect RecordType = 1
	// RecWave is a format-1 record, no longer written: it marked the
	// reject-wave broadcast behind the run that decided the first reject,
	// with the grant total then. The reader still decodes it and every
	// consumer skips it; replay rebuilds the wave from the effects.
	RecWave RecordType = 2
)

// maxBlockLen bounds a block's payload; a corrupt length prefix can never
// drive a huge allocation.
const maxBlockLen = 8 << 20

// blockHeaderLen is the fixed prefix of a block: length + crc.
const blockHeaderLen = 8

// Decode errors.
var (
	// errShortRecord is returned when the buffer ends mid-block. Recovery
	// treats it as a torn tail.
	errShortRecord = errors.New("persist: truncated block")
	// errCorruptRecord is returned when a block fails its checksum or
	// carries invalid field values.
	errCorruptRecord = errors.New("persist: corrupt block")
)

// castagnoli is the CRC-32C table shared by blocks, segment headers and
// snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded WAL record.
type Record struct {
	Index uint64
	Type  RecordType

	// Effect fields (RecEffect).
	Node    tree.NodeID
	Kind    tree.ChangeKind
	Child   tree.NodeID
	Outcome controller.Outcome
	Serial  int64
	NewNode tree.NodeID

	// Wave fields (RecWave, format 1 only).
	Granted int64
}

// request reconstructs the controller request of an effect record.
func (r Record) request() controller.Request {
	return controller.Request{Node: r.Node, Kind: r.Kind, Child: r.Child}
}

// Packed-record tag bits.
const (
	tagKindMask = 0x07
	tagWaveKind = 0x07
	tagRejected = 0x08
	tagSerial   = 0x10
	tagNewNode  = 0x20
	tagChild    = 0x40
)

// appendPackedRecord appends the packed (block-interior) encoding of r.
// The record's Index is not encoded — it is positional within the block.
// The engine packs effects only; the RecWave branch is format 1's encoder,
// kept so tests can build format-1 bytes.
func appendPackedRecord(buf []byte, r Record) []byte {
	if r.Type == RecWave {
		buf = append(buf, tagWaveKind)
		return binary.AppendUvarint(buf, uint64(r.Granted))
	}
	tag := byte(r.Kind) & tagKindMask
	if r.Outcome == controller.Rejected {
		tag |= tagRejected
	}
	if r.Serial != 0 {
		tag |= tagSerial
	}
	if r.NewNode != 0 {
		tag |= tagNewNode
	}
	if r.Child != 0 {
		tag |= tagChild
	}
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(r.Node))
	if tag&tagSerial != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Serial))
	}
	if tag&tagNewNode != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.NewNode))
	}
	if tag&tagChild != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Child))
	}
	return buf
}

// decodePacked decodes one packed record from the front of p.
func decodePacked(p []byte, index uint64) (Record, int, error) {
	if len(p) < 1 {
		return Record{}, 0, fmt.Errorf("%w: empty record", errCorruptRecord)
	}
	tag := p[0]
	if tag&0x80 != 0 {
		return Record{}, 0, fmt.Errorf("%w: reserved tag bit set", errCorruptRecord)
	}
	off := 1
	uv := func() uint64 {
		if off < 0 { // a previous field already failed
			return 0
		}
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			off = -1 // poison: checked after the last field
			return 0
		}
		off += n
		return v
	}
	r := Record{Index: index}
	if tag&tagKindMask == tagWaveKind {
		r.Type = RecWave
		r.Granted = int64(uv())
		if off < 0 {
			return Record{}, 0, fmt.Errorf("%w: truncated wave record", errCorruptRecord)
		}
		return r, off, nil
	}
	r.Type = RecEffect
	r.Kind = tree.ChangeKind(tag & tagKindMask)
	if r.Kind > tree.RemoveInternal {
		return Record{}, 0, fmt.Errorf("%w: request kind %d", errCorruptRecord, r.Kind)
	}
	r.Outcome = controller.Granted
	if tag&tagRejected != 0 {
		r.Outcome = controller.Rejected
	}
	r.Node = tree.NodeID(uv())
	if tag&tagSerial != 0 {
		r.Serial = int64(uv())
	}
	if tag&tagNewNode != 0 {
		r.NewNode = tree.NodeID(uv())
	}
	if tag&tagChild != 0 {
		r.Child = tree.NodeID(uv())
	}
	if off < 0 {
		return Record{}, 0, fmt.Errorf("%w: truncated effect record", errCorruptRecord)
	}
	if tag&tagSerial != 0 && r.Serial == 0 {
		return Record{}, 0, fmt.Errorf("%w: explicit zero serial", errCorruptRecord)
	}
	if tag&tagNewNode != 0 && r.NewNode == 0 {
		return Record{}, 0, fmt.Errorf("%w: explicit zero new-node", errCorruptRecord)
	}
	if tag&tagChild != 0 && r.Child == 0 {
		return Record{}, 0, fmt.Errorf("%w: explicit zero child", errCorruptRecord)
	}
	return r, off, nil
}

// blockPrefixLen is the bytes of a block before its first packed record:
// length, crc, first index and count.
const blockPrefixLen = blockHeaderLen + 8 + 4

// openBlock appends the prefix of a block whose first record is WAL index
// firstIndex. Packed records follow it; closeBlock fills in the length and
// count, and checksumBlocks the crc.
func openBlock(buf []byte, firstIndex uint64) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	buf = binary.LittleEndian.AppendUint64(buf, firstIndex)
	return append(buf, 0, 0, 0, 0) // count placeholder
}

// closeBlock fills in the length and count of the block opened at
// buf[start:], which runs to the end of buf and whose last record is WAL
// index next-1.
func closeBlock(buf []byte, start int, next uint64) {
	first := binary.LittleEndian.Uint64(buf[start+blockHeaderLen:])
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-blockHeaderLen))
	binary.LittleEndian.PutUint32(buf[start+blockHeaderLen+8:], uint32(next-first))
}

// checksumBlocks fills in the crc of every block in buf, a run of closed
// blocks, walking their lengths.
func checksumBlocks(buf []byte) {
	for off := 0; off < len(buf); {
		end := off + blockHeaderLen + int(binary.LittleEndian.Uint32(buf[off:]))
		binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(buf[off+blockHeaderLen:end], castagnoli))
		off = end
	}
}

// AppendRecords packs and frames a run of records as one block. The
// records' indices must be contiguous starting at records[0].Index (the
// engine's append path guarantees this; tests use it directly).
func AppendRecords(buf []byte, records []Record) []byte {
	if len(records) == 0 {
		return buf
	}
	start := len(buf)
	buf = openBlock(buf, records[0].Index)
	for _, r := range records {
		buf = appendPackedRecord(buf, r)
	}
	closeBlock(buf, start, records[0].Index+uint64(len(records)))
	checksumBlocks(buf[start:])
	return buf
}

// DecodeWALRecords decodes one block from the front of p, appending its
// records to out and returning the extended slice plus the bytes
// consumed. errShortRecord distinguishes a torn tail (truncate and
// continue) from errCorruptRecord (checksum or field validation failure).
func DecodeWALRecords(p []byte, out []Record) ([]Record, int, error) {
	if len(p) < blockHeaderLen {
		return out, 0, errShortRecord
	}
	n := binary.LittleEndian.Uint32(p)
	crc := binary.LittleEndian.Uint32(p[4:])
	if n < 12 || n > maxBlockLen {
		return out, 0, fmt.Errorf("%w: block payload length %d", errCorruptRecord, n)
	}
	if len(p) < blockHeaderLen+int(n) {
		return out, 0, errShortRecord
	}
	payload := p[blockHeaderLen : blockHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return out, 0, fmt.Errorf("%w: block checksum mismatch", errCorruptRecord)
	}
	firstIndex := binary.LittleEndian.Uint64(payload)
	count := binary.LittleEndian.Uint32(payload[8:])
	body := payload[12:]
	if int(count) > len(body) { // every packed record is at least 1 byte
		return out, 0, fmt.Errorf("%w: %d records in %d payload bytes", errCorruptRecord, count, len(body))
	}
	off := 0
	for i := uint32(0); i < count; i++ {
		r, n, err := decodePacked(body[off:], firstIndex+uint64(i))
		if err != nil {
			return out, 0, err
		}
		out = append(out, r)
		off += n
	}
	if off != len(body) {
		return out, 0, fmt.Errorf("%w: %d trailing bytes after %d records", errCorruptRecord, len(body)-off, count)
	}
	return out, blockHeaderLen + int(n), nil
}
