package persist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/persist"
	"dynctrl/internal/tree"
)

// TestSegmentBytesPinned holds the segment files of a fixed history against
// a digest: which records share a block, where blocks split, where segments
// rotate and every byte of the framing. The history mixes every record
// shape the engine writes (the five kinds, grants and rejects, serials, new
// nodes, children, and errored results that log nothing) in batches of 1 to
// 47, with blocks sealed at 64 packed bytes and segments rotated at
// 700 bytes. A deliberate format change bumps segmentFormat and replaces
// the constant.
func TestSegmentBytesPinned(t *testing.T) {
	defer persist.SetSealBytesForTests(64)()
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	errFailed := errors.New("refused")
	var reqs []controller.Request
	var results []controller.BatchResult
	records := 0
	for wave := 0; wave < 40; wave++ {
		reqs, results = reqs[:0], results[:0]
		for i := 0; i < 1+wave*wave%47; i++ {
			k := wave*31 + i
			req := controller.Request{Node: tree.NodeID(1 + k%97), Kind: tree.ChangeKind(k % 5)}
			if req.Kind == tree.AddInternal || req.Kind == tree.RemoveInternal {
				req.Child = tree.NodeID(200 + k%13)
			}
			res := controller.BatchResult{Grant: controller.Grant{Outcome: controller.Granted}}
			switch {
			case k%11 == 3:
				res = controller.BatchResult{Err: errFailed}
			case k%7 == 5:
				res.Grant.Outcome = controller.Rejected
			default:
				res.Grant.Serial = int64(1 + k*k%100000)
				if req.Kind == tree.AddLeaf || req.Kind == tree.AddInternal {
					res.Grant.NewNode = tree.NodeID(300 + k)
				}
			}
			if res.Err == nil {
				records++
			}
			reqs, results = append(reqs, req), append(results, res)
		}
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(seg)))
		h.Write(buf)
	}
	history, err := persist.ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(history[0].Records); got != records || len(segs) < 4 {
		t.Fatalf("%d records in %d segments, want %d records over at least 4", got, len(segs), records)
	}
	const want = "d1aa5aebf43221bc05bda7c2700dfafa4333ae7cebe330e426a8d2fbf4656ed1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("segment bytes changed: sha256 %s over %d segments, pinned %s", got, len(segs), want)
	}
}

// TestManifestBytesPinned holds the MANIFEST that the third Open of a
// directory leaves: magic "DMAN", segmentFormat, incarnation 3 and the
// CRC-32C of those 14 bytes, all little-endian. A deliberate format change
// bumps segmentFormat and replaces the constant.
func TestManifestBytesPinned(t *testing.T) {
	dir := t.TempDir()
	for range 3 {
		eng, _, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "444d414e01000300000000000000259b2af5"
	if got := hex.EncodeToString(buf); got != want {
		t.Fatalf("MANIFEST bytes changed: %s, pinned %s", got, want)
	}
}
