package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"dynctrl/internal/tree"
)

// readOne decodes exactly one frame from the encoded bytes.
func readOne(t *testing.T, enc []byte) (FrameType, []byte) {
	t.Helper()
	var buf []byte
	r := bytes.NewReader(enc)
	ft, p, err := ReadFrame(r, &buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("frame left %d undecoded bytes", r.Len())
	}
	return ft, p
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, Tenant: "team-a"}
	ft, p := readOne(t, AppendHello(nil, in))
	if ft != FrameHello {
		t.Fatalf("frame type %v, want hello", ft)
	}
	out, err := DecodeHello(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestHelloEmptyTenantDefaults(t *testing.T) {
	_, p := readOne(t, AppendHello(nil, Hello{Version: Version}))
	out, err := DecodeHello(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Tenant != DefaultTenant {
		t.Fatalf("empty tenant encoded as %q, want %q", out.Tenant, DefaultTenant)
	}
}

func TestHelloLegacyShapeDecodes(t *testing.T) {
	// A v2 client's Hello has no tenant field. It must decode cleanly —
	// the server answers with a typed CodeVersion error, never a framing
	// error or a hang — and re-encode canonically.
	enc := AppendHello(nil, Hello{Version: 2})
	ft, p := readOne(t, enc)
	if ft != FrameHello {
		t.Fatalf("frame type %v, want hello", ft)
	}
	if len(p) != 2 {
		t.Fatalf("legacy hello payload %d bytes, want 2", len(p))
	}
	out, err := DecodeHello(p)
	if err != nil {
		t.Fatalf("decode legacy hello: %v", err)
	}
	if out.Version != 2 || out.Tenant != "" {
		t.Fatalf("legacy hello decoded as %+v, want {Version:2}", out)
	}
	if reenc := AppendHello(nil, out); !bytes.Equal(reenc, enc) {
		t.Fatalf("legacy hello not canonical:\n in %x\nout %x", enc, reenc)
	}
}

func TestHelloRejectsBadTenant(t *testing.T) {
	for _, bad := range []string{"", "-leading", "Upper", "has space", strings.Repeat("x", maxTenantLen+1)} {
		var enc []byte
		enc = appendHeader(enc, FrameHello, 2+2+len(bad))
		enc = append(enc, byte(Version), 0)
		enc = append(enc, byte(len(bad)), byte(len(bad)>>8))
		enc = append(enc, bad...)
		_, p := readOne(t, enc)
		if _, err := DecodeHello(p); !errors.Is(err, ErrBadTenant) {
			t.Fatalf("tenant %q: err %v, want ErrBadTenant", bad, err)
		}
	}
}

func TestValidTenant(t *testing.T) {
	for name, want := range map[string]bool{
		"default": true, "team-a": true, "a": true, "t_0": true,
		"": false, "-x": false, "_x": false, "A": false, "a.b": false,
		strings.Repeat("z", maxTenantLen): true, strings.Repeat("z", maxTenantLen+1): false,
	} {
		if got := ValidTenant(name); got != want {
			t.Errorf("ValidTenant(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := Welcome{Version: Version, Tenant: "team-b", M: 1 << 40, W: 12345, TopoSig: 0xdeadbeefcafe, Incarnation: 42}
	ft, p := readOne(t, AppendWelcome(nil, in))
	if ft != FrameWelcome {
		t.Fatalf("frame type %v, want welcome", ft)
	}
	out, err := DecodeWelcome(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestSubmitRoundTrip(t *testing.T) {
	reqs := []Req{
		{Node: 1, Kind: tree.None},
		{Node: 42, Kind: tree.AddLeaf},
		{Node: 7, Kind: tree.AddInternal, Child: 9},
		{Node: 1 << 50, Kind: tree.RemoveInternal},
	}
	ft, p := readOne(t, AppendSubmit(nil, 99, reqs))
	if ft != FrameSubmit {
		t.Fatalf("frame type %v, want submit", ft)
	}
	var s Submit
	if err := DecodeSubmit(p, &s); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if s.ID != 99 || len(s.Reqs) != len(reqs) {
		t.Fatalf("decoded id %d / %d reqs, want 99 / %d", s.ID, len(s.Reqs), len(reqs))
	}
	for i, r := range reqs {
		if s.Reqs[i] != r {
			t.Fatalf("req %d: got %+v, want %+v", i, s.Reqs[i], r)
		}
	}
}

func TestSubmitDecodeReusesBuffer(t *testing.T) {
	enc := AppendSubmit(nil, 1, []Req{{Node: 3}, {Node: 4}})
	_, p := readOne(t, enc)
	s := Submit{Reqs: make([]Req, 0, 16)}
	backing := s.Reqs[:16]
	if err := DecodeSubmit(p, &s); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if &s.Reqs[0] != &backing[0] {
		t.Fatal("decode allocated a new slice despite sufficient capacity")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	results := []Result{
		{Outcome: 1, Code: CodeOK, Serial: 77, NewNode: 1234},
		{Outcome: 2, Code: CodeOK},
		{Code: CodeBadRequest},
		{Code: CodeShutdown},
	}
	ft, p := readOne(t, AppendResults(nil, 7, results))
	if ft != FrameResults {
		t.Fatalf("frame type %v, want results", ft)
	}
	var rs Results
	if err := DecodeResults(p, &rs); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rs.ID != 7 || len(rs.Results) != len(results) {
		t.Fatalf("decoded id %d / %d results, want 7 / %d", rs.ID, len(rs.Results), len(results))
	}
	for i, r := range results {
		if rs.Results[i] != r {
			t.Fatalf("result %d: got %+v, want %+v", i, rs.Results[i], r)
		}
	}
}

func TestRejectWaveRoundTrip(t *testing.T) {
	in := RejectWave{Granted: 987654321}
	ft, p := readOne(t, AppendRejectWave(nil, in))
	if ft != FrameRejectWave {
		t.Fatalf("frame type %v, want reject-wave", ft)
	}
	out, err := DecodeRejectWave(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := ErrorFrame{Code: CodeVersion, Detail: "speak version 1"}
	ft, p := readOne(t, AppendError(nil, in))
	if ft != FrameError {
		t.Fatalf("frame type %v, want error", ft)
	}
	out, err := DecodeError(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestErrorDetailTruncated(t *testing.T) {
	in := ErrorFrame{Code: CodeProtocol, Detail: strings.Repeat("x", 1<<17)}
	_, p := readOne(t, AppendError(nil, in))
	out, err := DecodeError(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Detail) != 1<<16 {
		t.Fatalf("detail length %d, want truncation to %d", len(out.Detail), 1<<16)
	}
}

func TestStreamOfFrames(t *testing.T) {
	var enc []byte
	enc = AppendHello(enc, Hello{Version: Version})
	enc = AppendSubmit(enc, 1, []Req{{Node: 2, Kind: tree.AddLeaf}})
	enc = AppendRejectWave(enc, RejectWave{Granted: 5})

	r := bytes.NewReader(enc)
	var buf []byte
	want := []FrameType{FrameHello, FrameSubmit, FrameRejectWave}
	for i, w := range want {
		ft, _, err := ReadFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != w {
			t.Fatalf("frame %d: type %v, want %v", i, ft, w)
		}
	}
	if _, _, err := ReadFrame(r, &buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: err %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	enc := []byte{0xff, 0xff, 0xff, 0xff, byte(FrameSubmit)}
	var buf []byte
	if _, _, err := ReadFrame(bytes.NewReader(enc), &buf); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err %v, want errFrameTooLarge", err)
	}
}

func TestReadFrameMidFrameEOF(t *testing.T) {
	enc := AppendSubmit(nil, 1, []Req{{Node: 2}})
	var buf []byte
	if _, _, err := ReadFrame(bytes.NewReader(enc[:len(enc)-3]), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDecodeSubmitRejectsBadKind(t *testing.T) {
	enc := AppendSubmit(nil, 1, []Req{{Node: 2, Kind: tree.ChangeKind(9)}})
	_, p := readOne(t, enc)
	var s Submit
	if err := DecodeSubmit(p, &s); !errors.Is(err, errBadKind) {
		t.Fatalf("err %v, want errBadKind", err)
	}
}

func TestDecodeSubmitRejectsCountMismatch(t *testing.T) {
	enc := AppendSubmit(nil, 1, []Req{{Node: 2}, {Node: 3}})
	_, p := readOne(t, enc)
	// Inflate the declared count without growing the payload.
	p[8] = 200
	var s Submit
	if err := DecodeSubmit(p, &s); !errors.Is(err, errShortPayload) {
		t.Fatalf("err %v, want errShortPayload", err)
	}
}

func TestDecodeTruncatedPayloads(t *testing.T) {
	frames := map[string][]byte{
		"welcome":     AppendWelcome(nil, Welcome{Version: Version, Tenant: "t0", M: 10, W: 5, TopoSig: 3}),
		"reject-wave": AppendRejectWave(nil, RejectWave{Granted: 9}),
		"error":       AppendError(nil, ErrorFrame{Code: CodeProtocol, Detail: "x"}),
	}
	for name, enc := range frames {
		_, p := readOne(t, enc)
		for cut := 0; cut < len(p); cut++ {
			short := p[:cut]
			var err error
			switch name {
			case "welcome":
				_, err = DecodeWelcome(short)
			case "reject-wave":
				_, err = DecodeRejectWave(short)
			case "error":
				_, err = DecodeError(short)
			}
			if err == nil {
				t.Fatalf("%s: decoding %d/%d payload bytes succeeded", name, cut, len(p))
			}
		}
	}
}
