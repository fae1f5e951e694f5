package persist

import (
	"encoding/binary"
	"fmt"
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

// segmentFormat versions the stamps below and the record framing.
const segmentFormat = 1

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

// A stamp is the fixed record that opens a segment and makes up the
// MANIFEST: a magic, segmentFormat as a uint16, the file's uint64 fields
// and the CRC-32C of the bytes before it, all little-endian.
type stamp struct {
	what   string // names the file in errors
	magic  [4]byte
	fields []*uint64
}

// segmentStamp opens a segment: the incarnation that wrote it and the WAL
// index of its first record.
func segmentStamp(incarnation, firstIndex *uint64) stamp {
	return stamp{"segment header", [4]byte{'D', 'W', 'A', 'L'}, []*uint64{incarnation, firstIndex}}
}

// manifestStamp is the whole MANIFEST: the incarnation counter.
func manifestStamp(incarnation *uint64) stamp {
	return stamp{"manifest", [4]byte{'D', 'M', 'A', 'N'}, []*uint64{incarnation}}
}

func (s stamp) len() int { return 4 + 2 + 8*len(s.fields) + 4 }

func (s stamp) bytes() []byte {
	b := binary.LittleEndian.AppendUint16(s.magic[:], segmentFormat)
	for _, f := range s.fields {
		b = binary.LittleEndian.AppendUint64(b, *f)
	}
	return binary.LittleEndian.AppendUint32(b, crc32c(b))
}

// read checks the stamp at the front of p and reads its fields.
func (s stamp) read(p []byte) error {
	n := s.len()
	if len(p) < n {
		return fmt.Errorf("persist: %s truncated (%d bytes)", s.what, len(p))
	}
	if [4]byte(p[:4]) != s.magic {
		return fmt.Errorf("persist: bad %s magic %q", s.what, p[:4])
	}
	if f := binary.LittleEndian.Uint16(p[4:]); f != segmentFormat {
		return fmt.Errorf("persist: %s format %d, this build reads %d", s.what, f, segmentFormat)
	}
	if crc32c(p[:n-4]) != binary.LittleEndian.Uint32(p[n-4:]) {
		return fmt.Errorf("persist: %s checksum mismatch", s.what)
	}
	for i, f := range s.fields {
		*f = binary.LittleEndian.Uint64(p[6+8*i:])
	}
	return nil
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
	hdr := segmentStamp(&sr.incarnation, &sr.firstIndex)
	if err := hdr.read(buf); err != nil {
		// A header that never made it to disk intact: the whole file is a
		// torn tail.
		sr.tornAt = 0
		sr.err = err
		return sr, nil
	}
	off := int64(hdr.len())
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
	var inc uint64
	s := manifestStamp(&inc)
	if len(buf) != s.len() {
		return 0, fmt.Errorf("persist: manifest is %d bytes", len(buf))
	}
	if err := s.read(buf); err != nil {
		return 0, err
	}
	return inc, nil
}

// writeManifest atomically records the incarnation in dir's MANIFEST.
func writeManifest(dir string, incarnation uint64) error {
	return writeFileAtomic(filepath.Join(dir, manifestName), manifestStamp(&incarnation).bytes())
}
