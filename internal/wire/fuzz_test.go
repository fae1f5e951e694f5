package wire

import (
	"bytes"
	"slices"
	"testing"

	"dynctrl/internal/tree"
)

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and every
// payload decoder. Decoding must never panic, and whenever a payload
// decodes successfully, re-encoding it must reproduce the identical frame
// (the codec is canonical: there is exactly one encoding per value).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, Tenant: "team-a"}))
	f.Add(AppendHello(nil, Hello{Version: 2})) // legacy tenant-less shape
	f.Add(AppendWelcome(nil, Welcome{Version: Version, Tenant: "t0", M: 1000, W: 50, TopoSig: 7}))
	f.Add(AppendSubmit(nil, 3, []Req{
		{Node: 1, Kind: tree.None},
		{Node: 2, Kind: tree.AddLeaf},
		{Node: 5, Kind: tree.AddInternal, Child: 6},
	}))
	f.Add(AppendResults(nil, 3, []Result{
		{Outcome: 1, Code: CodeOK, Serial: 9, NewNode: 11},
		{Code: CodeBadRequest},
	}))
	f.Add(AppendRejectWave(nil, RejectWave{Granted: 950}))
	f.Add(AppendError(nil, ErrorFrame{Code: CodeProtocol, Detail: "bad frame"}))
	// A stream of two frames plus trailing garbage.
	f.Add(append(AppendHello(AppendRejectWave(nil, RejectWave{Granted: 1}), Hello{Version: 2}), 0xff, 0x00, 0x13))
	// A bad kind in the last entry, after entries that decode.
	f.Add(AppendSubmit(nil, 4, []Req{{Node: 1}, {Node: 2, Kind: tree.AddLeaf}, {Node: 3, Kind: tree.ChangeKind(9)}}))
	// Counts that disagree with the payload length: one entry declared two.
	for _, enc := range [][]byte{
		AppendSubmit(nil, 5, []Req{{Node: 1}}),
		AppendResults(nil, 5, []Result{{Outcome: 1}}),
	} {
		enc[5+8] = 2
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for frames := 0; frames < 64; frames++ {
			ft, p, err := ReadFrame(r, &buf)
			if err != nil {
				return // malformed or exhausted stream: fine, as long as no panic
			}
			var reenc []byte
			switch ft {
			case FrameHello:
				h, err := DecodeHello(p)
				if err != nil {
					continue
				}
				reenc = AppendHello(nil, h)
			case FrameWelcome:
				w, err := DecodeWelcome(p)
				if err != nil {
					continue
				}
				reenc = AppendWelcome(nil, w)
			case FrameSubmit:
				checkAppendDecodeKeepsPrefix(t, p)
				var s Submit
				if err := DecodeSubmit(p, &s); err != nil {
					continue
				}
				reenc = AppendSubmit(nil, s.ID, s.Reqs)
			case FrameResults:
				var rs Results
				if err := DecodeResults(p, &rs); err != nil {
					continue
				}
				reenc = AppendResults(nil, rs.ID, rs.Results)
			case FrameRejectWave:
				rw, err := DecodeRejectWave(p)
				if err != nil {
					continue
				}
				reenc = AppendRejectWave(nil, rw)
			case FrameError:
				e, err := DecodeError(p)
				if err != nil {
					continue
				}
				reenc = AppendError(nil, e)
			default:
				continue // unknown frame type: skipped, not fatal
			}
			// The re-encoded frame must byte-match the original: header,
			// type, payload.
			r2 := bytes.NewReader(reenc)
			var buf2 []byte
			ft2, p2, err := ReadFrame(r2, &buf2)
			if err != nil {
				t.Fatalf("re-encoded %v frame unreadable: %v", ft, err)
			}
			if ft2 != ft || !bytes.Equal(p2, p) {
				t.Fatalf("re-encode of %v frame not canonical:\n in: %x\nout: %x", ft, p, p2)
			}
			if r2.Len() != 0 {
				t.Fatalf("re-encoded %v frame left %d bytes", ft, r2.Len())
			}
		}
	})
}

// checkAppendDecodeKeepsPrefix decodes a Submit payload onto a destination
// that already holds requests, once with room to spare and once without:
// the existing requests must come back untouched, followed by exactly what
// DecodeSubmit yields, or alone when the payload is refused.
func checkAppendDecodeKeepsPrefix(t *testing.T, p []byte) {
	t.Helper()
	prefix := []Req{{Node: 11, Kind: tree.AddLeaf}, {Node: 12, Kind: tree.AddInternal, Child: 13}}
	var s Submit
	serr := DecodeSubmit(p, &s)
	for _, spare := range []int{0, 64} {
		dst := append(make([]Req, 0, len(prefix)+spare), prefix...)
		out, id, err := AppendDecodeSubmit(dst, p)
		if (err == nil) != (serr == nil) {
			t.Fatalf("AppendDecodeSubmit err %v, DecodeSubmit err %v", err, serr)
		}
		want := prefix
		if err == nil {
			want = append(append([]Req{}, prefix...), s.Reqs...)
			if id != s.ID {
				t.Fatalf("AppendDecodeSubmit id %d, DecodeSubmit id %d", id, s.ID)
			}
		}
		if !slices.Equal(out, want) {
			t.Fatalf("AppendDecodeSubmit onto %d requests (spare %d): got %+v, want %+v", len(prefix), spare, out, want)
		}
	}
}
