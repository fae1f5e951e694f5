package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"dynctrl/internal/tree"
)

// pinnedSubmit carries every ChangeKind; pinnedResults a grant with a
// serial and a new node, a reject, each per-result error code and a
// negative serial.
var (
	pinnedSubmit = Submit{ID: 0x0102030405060708, Reqs: []Req{
		{Node: 1, Kind: tree.None},
		{Node: 0x1122334455, Kind: tree.AddLeaf},
		{Node: 7, Kind: tree.RemoveLeaf},
		{Node: 42, Kind: tree.AddInternal, Child: 0x0a0b0c},
		{Node: 1 << 50, Kind: tree.RemoveInternal},
	}}
	pinnedResults = Results{ID: 0xfedcba9876543210, Results: []Result{
		{Outcome: 1, Code: CodeOK, Serial: 0x0102030405, NewNode: 0x0607},
		{Outcome: 2, Code: CodeOK},
		{Code: CodeShutdown},
		{Code: CodeTerminated},
		{Code: CodeBadRequest},
		{Code: CodeInternal},
		{Outcome: 1, Code: CodeOK, Serial: -1, NewNode: 1 << 40},
	}}
)

// pinnedSubmitHex and pinnedResultsHex are the frames above as the
// byte-at-a-time codec this one replaced encoded them.
const (
	pinnedSubmitHex  = "00000062030807060504030201050000000100000000000000000000000000000000554433221100000001000000000000000007000000000000000200000000000000002a00000000000000030c0b0a00000000000000000000000400040000000000000000"
	pinnedResultsHex = "0000008b041032547698badcfe070000000100050403020100000007060000000000000200000000000000000000000000000000000001000000000000000000000000000000000002000000000000000000000000000000000003000000000000000000000000000000000004000000000000000000000000000000000100ffffffffffffffff0000000000010000"
)

// TestFrameEncodingPinned holds the hot-path frames to bytes captured from
// the previous codec (docs/PROTOCOL.md's tables), in both directions.
func TestFrameEncodingPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"submit", AppendSubmit(nil, pinnedSubmit.ID, pinnedSubmit.Reqs), pinnedSubmitHex},
		{"results", AppendResults(nil, pinnedResults.ID, pinnedResults.Results), pinnedResultsHex},
		{"submit-empty", AppendSubmit(nil, 5, nil), "0000000d03050000000000000000000000"},
		{"results-empty", AppendResults(nil, 6, nil), "0000000d04060000000000000000000000"},
	} {
		if got := hex.EncodeToString(tc.enc); got != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}

	frame := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		_, p := readOne(t, b)
		return p
	}
	var s Submit
	if err := DecodeSubmit(frame(pinnedSubmitHex), &s); err != nil || !reflect.DeepEqual(s, pinnedSubmit) {
		t.Errorf("pinned submit decodes as %+v, %v; want %+v", s, err, pinnedSubmit)
	}
	var rs Results
	if err := DecodeResults(frame(pinnedResultsHex), &rs); err != nil || !reflect.DeepEqual(rs, pinnedResults) {
		t.Errorf("pinned results decode as %+v, %v; want %+v", rs, err, pinnedResults)
	}
}

// TestDecodeCountCannotWrap feeds each batch decoder a count whose product
// with the entry size equals the payload's entry bytes modulo 2^32. Where
// int is 32 bits (GOARCH=386) a multiplied check passes it, and the
// decoder then slices past its buffer: a panic on the daemon's serve
// goroutine.
func TestDecodeCountCannotWrap(t *testing.T) {
	payload := func(count uint32, body int) []byte {
		p := binary.LittleEndian.AppendUint64(nil, 1)
		p = binary.LittleEndian.AppendUint32(p, count)
		return append(p, make([]byte, body)...)
	}
	for _, tc := range []struct {
		name  string
		count uint32
		body  int
		size  int
	}{
		{"submit", 0xF0F0F0F1, 1, reqSize},        // 17 × count = 2^36 + 1
		{"results", 0x80000000, 0, resSize},       // 18 × count = 9 × 2^32
		{"results", 0x80000001, resSize, resSize}, // 18 × count = 9 × 2^32 + 18
	} {
		if uint32(uint64(tc.count)*uint64(tc.size)) != uint32(tc.body) {
			t.Fatalf("%s count %#x does not wrap to %d bytes", tc.name, tc.count, tc.body)
		}
		p := payload(tc.count, tc.body)
		var err error
		if tc.name == "submit" {
			err = DecodeSubmit(p, &Submit{})
		} else {
			err = DecodeResults(p, &Results{})
		}
		if !errors.Is(err, ErrShortPayload) {
			t.Errorf("%s declaring %#x entries in %d bytes: err %v, want ErrShortPayload", tc.name, tc.count, tc.body, err)
		}
	}
}

// codecBatch is a 128-entry batch of each kind, the benchmark's chunk size.
func codecBatch() ([]Req, []Result) {
	reqs := make([]Req, 128)
	results := make([]Result, 128)
	for i := range reqs {
		reqs[i] = Req{Node: tree.NodeID(i * 7), Kind: tree.ChangeKind(i % 5), Child: tree.NodeID(i)}
		results[i] = Result{Outcome: 1, Serial: int64(i), NewNode: tree.NodeID(i)}
	}
	return reqs, results
}

// TestCodecAllocatesNothing holds the codec calls a request crosses, and
// ReadFrame under them, to zero allocations once their buffers are warm.
func TestCodecAllocatesNothing(t *testing.T) {
	reqs, results := codecBatch()
	var (
		frame, resf, rbuf []byte
		s                 Submit
		rs                Results
		r                 bytes.Reader
	)
	run := func() {
		frame = AppendSubmit(frame[:0], 1, reqs)
		r.Reset(frame)
		_, p, err := ReadFrame(&r, &rbuf)
		if err != nil || DecodeSubmit(p, &s) != nil {
			t.Fatal("submit frame did not round-trip")
		}
		resf = AppendResults(resf[:0], 1, results)
		if DecodeResults(resf[5:], &rs) != nil {
			t.Fatal("results frame did not round-trip")
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("%v allocations a round, want 0", n)
	}
}

func BenchmarkCodec(b *testing.B) {
	reqs, results := codecBatch()
	frame := AppendSubmit(nil, 1, reqs)
	resf := AppendResults(nil, 1, results)
	var s Submit
	var rs Results
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"submit/encode", func() { frame = AppendSubmit(frame[:0], 1, reqs) }},
		{"submit/decode", func() { _ = DecodeSubmit(frame[5:], &s) }},
		{"results/encode", func() { resf = AppendResults(resf[:0], 1, results) }},
		{"results/decode", func() { _ = DecodeResults(resf[5:], &rs) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				bc.fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
