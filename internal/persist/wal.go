package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// On-disk layout of a WAL directory:
//
//	MANIFEST            incarnation counter (rewritten atomically at boot)
//	wal-00000001.log    record segments, strictly increasing sequence
//	wal-00000002.log
//	snap-00000000000000c8.snap   snapshots, named by covered WAL index
//
// Segment files open with a fixed header naming the incarnation that wrote
// them and the index of their first record; records then follow back to
// back. Snapshots are written to a temp file, fsynced and renamed, so a
// crash mid-checkpoint leaves the previous snapshot intact.

var (
	segmentMagic  = [4]byte{'D', 'W', 'A', 'L'}
	manifestMagic = [4]byte{'D', 'M', 'A', 'N'}
)

// segmentFormat versions the segment header + record framing.
const segmentFormat = 1

// segmentHeaderLen is the fixed byte length of a segment header.
const segmentHeaderLen = 4 + 2 + 8 + 8 + 4

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
	manifestName   = "MANIFEST"
)

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

func snapshotPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapshotPrefix, index, snapshotSuffix))
}

// appendSegmentHeader appends an encoded segment header.
func appendSegmentHeader(buf []byte, incarnation, firstIndex uint64) []byte {
	start := len(buf)
	buf = append(buf, segmentMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, segmentFormat)
	buf = binary.LittleEndian.AppendUint64(buf, incarnation)
	buf = binary.LittleEndian.AppendUint64(buf, firstIndex)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:start+4+2+8+8], castagnoli))
}

// decodeSegmentHeader decodes a segment header from the front of p.
func decodeSegmentHeader(p []byte) (incarnation, firstIndex uint64, err error) {
	if len(p) < segmentHeaderLen {
		return 0, 0, fmt.Errorf("persist: segment header truncated (%d bytes)", len(p))
	}
	if [4]byte(p[:4]) != segmentMagic {
		return 0, 0, fmt.Errorf("persist: bad segment magic %q", p[:4])
	}
	if f := binary.LittleEndian.Uint16(p[4:]); f != segmentFormat {
		return 0, 0, fmt.Errorf("persist: segment format %d, this build reads %d", f, segmentFormat)
	}
	incarnation = binary.LittleEndian.Uint64(p[6:])
	firstIndex = binary.LittleEndian.Uint64(p[14:])
	if crc32.Checksum(p[:4+2+8+8], castagnoli) != binary.LittleEndian.Uint32(p[22:]) {
		return 0, 0, fmt.Errorf("persist: segment header checksum mismatch")
	}
	return incarnation, firstIndex, nil
}

// listNumbered returns, sorted, the numbers n of the files in dir named
// prefix+n+suffix with n written in base: the segment sequence numbers
// (decimal) or the snapshot indices (hex). Foreign files are ignored.
func listNumbered(dir, prefix, suffix string, base int) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []uint64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), base, 64)
		if err != nil {
			continue
		}
		nums = append(nums, n)
	}
	slices.Sort(nums)
	return nums, nil
}

// segmentRecords is one scanned segment: its header fields, decoded
// records, and how the scan ended.
type segmentRecords struct {
	seq         uint64
	incarnation uint64
	firstIndex  uint64
	records     []Record
	// tornAt is the byte offset of a torn/corrupt tail (-1 for a clean
	// end); err holds the decode error that stopped the scan.
	tornAt int64
	err    error
}

// scanSegment reads and decodes one whole segment file.
func scanSegment(dir string, seq uint64) (*segmentRecords, error) {
	buf, err := os.ReadFile(segmentPath(dir, seq))
	if err != nil {
		return nil, err
	}
	sr := &segmentRecords{seq: seq, tornAt: -1}
	inc, first, err := decodeSegmentHeader(buf)
	if err != nil {
		// A header that never made it to disk intact: the whole file is a
		// torn tail.
		sr.tornAt = 0
		sr.err = err
		return sr, nil
	}
	sr.incarnation = inc
	sr.firstIndex = first
	off := int64(segmentHeaderLen)
	for off < int64(len(buf)) {
		recs, n, err := DecodeWALRecords(buf[off:], sr.records)
		if err != nil {
			sr.tornAt = off
			sr.err = err
			return sr, nil
		}
		sr.records = recs
		off += int64(n)
	}
	return sr, nil
}

// scanSegments applies the shared crash-artifact policy across every
// segment in dir, in sequence order: a headerless segment (tornAt == 0 —
// the header never reached disk) is skipped, a torn tail in the *final*
// segment is tolerated (and truncated on disk when truncate is set), and
// corruption anywhere else is refused — the records after it would gap.
// Boot recovery and the cross-incarnation history audit both build on
// this one policy, so they can never accept different histories. It
// returns the surviving scans, the torn bytes found in the final segment,
// and the highest sequence number present.
func scanSegments(dir string, truncate bool, logger *slog.Logger) ([]*segmentRecords, int64, uint64, error) {
	seqs, err := listNumbered(dir, segmentPrefix, segmentSuffix, 10)
	if err != nil {
		return nil, 0, 0, err
	}
	var (
		out       []*segmentRecords
		tornBytes int64
		maxSeq    uint64
	)
	for i, seq := range seqs {
		maxSeq = seq
		sr, err := scanSegment(dir, seq)
		if err != nil {
			return nil, 0, 0, err
		}
		if sr.tornAt == 0 {
			// A crash between segment creation and the header fsync leaves
			// a headerless file that decodably contains nothing. Skip it —
			// if it ever held real records, the callers' index-contiguity
			// checks flag the gap instead of silently dropping history.
			logger.Warn("skipping headerless segment", "path", segmentPath(dir, seq), "err", sr.err)
			continue
		}
		if sr.tornAt > 0 {
			if i != len(seqs)-1 {
				return nil, 0, 0, fmt.Errorf("persist: segment %s corrupt at offset %d (not the final segment): %w",
					segmentPath(dir, seq), sr.tornAt, sr.err)
			}
			if fi, err := os.Stat(segmentPath(dir, seq)); err == nil {
				tornBytes = fi.Size() - sr.tornAt
			}
			logger.Warn("torn tail in final segment", "path", segmentPath(dir, seq),
				"offset", sr.tornAt, "bytes", tornBytes, "err", sr.err)
			if truncate {
				if err := os.Truncate(segmentPath(dir, seq), sr.tornAt); err != nil {
					return nil, 0, 0, err
				}
			}
		}
		out = append(out, sr)
	}
	return out, tornBytes, maxSeq, nil
}

// writeFileAtomic writes data to path via a temp file + fsync + rename +
// directory fsync, so the file is either absent or complete.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readManifest returns the incarnation recorded in dir's MANIFEST (0 when
// absent).
func readManifest(dir string) (uint64, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(buf) != 4+2+8+4 {
		return 0, fmt.Errorf("persist: manifest is %d bytes", len(buf))
	}
	if [4]byte(buf[:4]) != manifestMagic {
		return 0, fmt.Errorf("persist: bad manifest magic %q", buf[:4])
	}
	if f := binary.LittleEndian.Uint16(buf[4:]); f != segmentFormat {
		return 0, fmt.Errorf("persist: manifest format %d", f)
	}
	inc := binary.LittleEndian.Uint64(buf[6:])
	if crc32.Checksum(buf[:14], castagnoli) != binary.LittleEndian.Uint32(buf[14:]) {
		return 0, fmt.Errorf("persist: manifest checksum mismatch")
	}
	return inc, nil
}

// writeManifest atomically records the incarnation in dir's MANIFEST.
func writeManifest(dir string, incarnation uint64) error {
	buf := append([]byte(nil), manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, segmentFormat)
	buf = binary.LittleEndian.AppendUint64(buf, incarnation)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[:14], castagnoli))
	return writeFileAtomic(filepath.Join(dir, manifestName), buf)
}
