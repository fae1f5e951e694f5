// Package wire is the binary protocol of the dynctrld admission-control
// service: a compact length-prefixed framing carrying the controller's
// Submit/grant/reject vocabulary over a byte stream.
//
// Every frame is
//
//	uint32  length   (big-endian; length of type byte + payload)
//	uint8   type     (FrameHello, FrameWelcome, ...)
//	[]byte  payload  (frame-specific, little-endian fixed-width fields)
//
// A connection opens with a Hello/Welcome version handshake. The Hello
// names the tenant namespace the connection binds to; the Welcome echoes
// the namespace and carries that tenant's admission contract and topology
// signature. Every later frame on the connection is implicitly scoped to
// the bound namespace — there is no per-request tenant field, so a
// connection cannot address another tenant's state at all. A Hello naming
// an unknown namespace is answered with an Error frame (CodeTenant) and
// the connection is closed.
//
// After the handshake the client streams Submit frames — each a
// correlation id plus a batch of requests — and the server answers each
// with a Results frame carrying the same id and one result per request, in
// order. Results may arrive out of submission order across ids (the server
// pipelines), so clients match on the id. A RejectWave frame may be pushed
// by the server at any point after the handshake: it announces that the
// bound tenant's reject wave has run and every later request will be
// rejected. An Error frame is connection-fatal.
//
// The payload encodings are fixed-width little-endian (no varints). The
// hot-path frames are Submit and Results: an id and a count, then that many
// fixed-size entries. An encoder grows its buffer once per frame and a
// decoder checks the count against the payload length once; each then
// stores or loads every entry at fixed offsets, with no length check or
// error return per field (the Submit decoder's one per-entry branch is the
// kind check). Each entry's layout is written once: putReq/getReq for a
// Submit entry, ResultEntries.Set/At for a Results entry. The tenant name
// in the handshake frames is the one variable-width field (u16 length +
// bytes), paid once per connection. Frames are bounded by MaxFrame; a
// decoder must reject anything larger before allocating.
//
// The normative protocol document — framing, version negotiation, every
// frame's field table, error codes, and the tenant-scoping rules — is
// docs/PROTOCOL.md; this package is its reference implementation.
//
// On Linux the daemon listens and accepts through Listen's syscall sockets,
// so it links no package net, and both ends move a connection's bytes by
// the raw path of sock_linux.go (Conn, and RawSocket for the client's
// *net.TCPConn); sock_other.go falls back to package net elsewhere.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"dynctrl/internal/tree"
)

// Version is the protocol version spoken by this package. A server answers
// a Hello carrying an unknown version with an Error frame (CodeVersion) and
// closes the connection. Version 2 added the server's durability
// incarnation to the Welcome frame; version 3 added the tenant namespace
// to both handshake frames (Hello names the namespace the connection binds
// to, Welcome echoes it). DecodeHello still accepts the v1/v2 frame shape,
// so a server can refuse an old client with a typed CodeVersion error
// instead of a protocol error or a hang.
const Version = 3

// DefaultTenant is the namespace a connection binds to when the client
// does not name one, and the namespace a single-tenant daemon serves.
const DefaultTenant = "default"

// maxTenantLen bounds the tenant namespace name in the handshake frames.
const maxTenantLen = 64

// ValidTenant reports whether name is a legal tenant namespace: 1 to
// maxTenantLen bytes of lowercase letters, digits, '-' or '_', starting
// with a letter or digit. Names double as WAL subdirectory names and
// /metricsz label values, so the alphabet is deliberately narrow.
func ValidTenant(name string) bool {
	if len(name) < 1 || len(name) > maxTenantLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// MaxFrame bounds the length prefix (type byte + payload) of every frame.
// It admits a Submit batch of over 60k requests, far above any sane
// read-batch, while keeping a malicious length prefix from driving a large
// allocation.
const MaxFrame = 1 << 20

// FrameType tags a frame.
type FrameType uint8

// Frame types.
const (
	// FrameHello opens a connection: client → server, {version}.
	FrameHello FrameType = 1
	// FrameWelcome accepts the handshake: server → client,
	// {version, M, W, topology signature}.
	FrameWelcome FrameType = 2
	// FrameSubmit carries a correlated batch of requests: client → server.
	FrameSubmit FrameType = 3
	// FrameResults answers one Submit frame: server → client, same id, one
	// result per request in order.
	FrameResults FrameType = 4
	// FrameRejectWave announces that the reject wave has run: server →
	// client, {granted so far}. Push-only; no response.
	FrameRejectWave FrameType = 5
	// FrameError reports a connection-fatal protocol error; the sender
	// closes the connection after writing it.
	FrameError FrameType = 6
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameSubmit:
		return "submit"
	case FrameResults:
		return "results"
	case FrameRejectWave:
		return "reject-wave"
	case FrameError:
		return "error"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Per-result error codes (Result.Code). CodeOK accompanies every answered
// request; the others replace an outcome when the controller returned an
// error for that request.
const (
	// CodeOK: the request was answered; Outcome/Serial/NewNode are valid.
	CodeOK uint8 = 0
	// CodeShutdown: the tenant has drained; the request was not decided.
	CodeShutdown uint8 = 1
	// CodeTerminated: a terminating controller has terminated.
	CodeTerminated uint8 = 2
	// CodeBadRequest: the controller refused the request (unknown node,
	// invalid kind for the target, ...).
	CodeBadRequest uint8 = 3
	// CodeInternal: the server failed to process the request.
	CodeInternal uint8 = 4
)

// Connection-fatal error codes (ErrorFrame.Code).
const (
	// CodeVersion: the Hello carried an unsupported protocol version.
	CodeVersion uint8 = 10
	// CodeProtocol: a malformed or unexpected frame was received.
	CodeProtocol uint8 = 11
	// CodeTenant: the Hello named a tenant namespace this server does not
	// serve (or a malformed name). The connection is never bound; nothing
	// the client sends can touch any tenant's state.
	CodeTenant uint8 = 12
)

// Decode errors.
var (
	// errFrameTooLarge is returned for a length prefix above MaxFrame.
	errFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// errShortPayload is returned when a payload ends mid-field.
	errShortPayload = errors.New("wire: truncated payload")
	// errBadKind is returned for an out-of-range request kind.
	errBadKind = errors.New("wire: invalid request kind")
	// ErrBadTenant is returned for a handshake tenant name that fails
	// ValidTenant.
	ErrBadTenant = errors.New("wire: invalid tenant name")
)

// Req is one request on the wire: the node the request arrives at, the
// change kind, and (for AddInternal) the child whose parent edge splits. It
// is the controller's request type, so neither side copies a batch to encode
// or to run it — the wire still depends only on the tree vocabulary.
type Req = tree.Request

// Result is one per-request answer. When Code is not CodeOK the outcome
// fields are meaningless and the request failed with the coded error.
type Result struct {
	Outcome uint8
	Code    uint8
	Serial  int64
	NewNode tree.NodeID
}

// Hello is the client's opening frame. Tenant names the namespace the
// connection binds to (DefaultTenant when the client left it empty); in
// the v1/v2 frame shape the field is absent and decodes as "".
type Hello struct {
	Version uint16
	Tenant  string
}

// Welcome is the server's handshake answer: the protocol version it will
// speak, the tenant namespace the connection is now bound to (echoing the
// Hello), and that tenant's admission contract. TopoSig is a signature of
// the tenant's initial tree ((*tree.Tree).Signature) so a load
// generator replaying a scenario can verify it reconstructed the same
// tree. Incarnation is the tenant's durability incarnation — how many
// times its WAL directory has been opened — so a client can tell it
// reconnected to a restarted (state-recovered) daemon rather than a fresh
// one; tenants without a WAL report 0.
type Welcome struct {
	Version     uint16
	Tenant      string
	M, W        int64
	TopoSig     uint64
	Incarnation uint64
}

// Submit is a correlated batch of requests.
type Submit struct {
	ID   uint64
	Reqs []Req
}

// Results answers the Submit frame with the same ID.
type Results struct {
	ID      uint64
	Results []Result
}

// RejectWave announces the reject wave; Granted is the server's grant count
// at the time the wave ran.
type RejectWave struct {
	Granted int64
}

// ErrorFrame is a connection-fatal error.
type ErrorFrame struct {
	Code   uint8
	Detail string
}

// String renders the error frame for diagnostics.
func (e ErrorFrame) String() string {
	return fmt.Sprintf("code %d: %s", e.Code, e.Detail)
}

// reqSize is the encoded size of one Req (node + kind + child).
const reqSize = 8 + 1 + 8

// resSize is the encoded size of one Result.
const resSize = 1 + 1 + 8 + 8

// batchHeader is the size of the id and count that open a Submit or Results
// payload.
const batchHeader = 8 + 4

// MaxBatchLen is the largest request count one Submit frame may carry such
// that both the Submit frame and its Results reply (whose entries are the
// wider of the two encodings) fit MaxFrame. Clients must split longer runs
// across several frames.
const MaxBatchLen = (MaxFrame - 1 - batchHeader) / resSize

// appendHeader appends the length prefix and type byte for a payload of n
// bytes.
func appendHeader(buf []byte, t FrameType, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(n+1))
	return append(buf, byte(t))
}

// appendTenant appends the u16-length-prefixed tenant name. Names longer
// than maxTenantLen are truncated (encoders should have validated with
// ValidTenant already; truncation only keeps a buggy caller within frame
// bounds).
func appendTenant(buf []byte, tenant string) []byte {
	if len(tenant) > maxTenantLen {
		tenant = tenant[:maxTenantLen]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tenant)))
	return append(buf, tenant...)
}

// AppendHello appends an encoded Hello frame to buf. Versions below 3 are
// encoded in the legacy tenant-less shape (the codec is canonical per
// version); for v3+ an empty Tenant is sent as DefaultTenant.
func AppendHello(buf []byte, h Hello) []byte {
	if h.Version < 3 {
		buf = appendHeader(buf, FrameHello, 2)
		return binary.LittleEndian.AppendUint16(buf, h.Version)
	}
	tenant := h.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if len(tenant) > maxTenantLen {
		tenant = tenant[:maxTenantLen]
	}
	buf = appendHeader(buf, FrameHello, 2+2+len(tenant))
	buf = binary.LittleEndian.AppendUint16(buf, h.Version)
	return appendTenant(buf, tenant)
}

// AppendWelcome appends an encoded Welcome frame to buf.
func AppendWelcome(buf []byte, w Welcome) []byte {
	tenant := w.Tenant
	if len(tenant) > maxTenantLen {
		tenant = tenant[:maxTenantLen]
	}
	buf = appendHeader(buf, FrameWelcome, 2+2+len(tenant)+8+8+8+8)
	buf = binary.LittleEndian.AppendUint16(buf, w.Version)
	buf = appendTenant(buf, tenant)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.M))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.W))
	buf = binary.LittleEndian.AppendUint64(buf, w.TopoSig)
	return binary.LittleEndian.AppendUint64(buf, w.Incarnation)
}

// growBatch extends buf, in one growth, by a Submit or Results frame of n
// entries of size bytes each: it writes the length prefix, type, id and
// count and returns the extended buffer and the entry region, which the
// caller must fill completely.
func growBatch(buf []byte, t FrameType, id uint64, n, size int) ([]byte, []byte) {
	plen := batchHeader + n*size
	buf = appendHeader(slices.Grow(buf, 5+plen), t, plen)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	l := len(buf)
	buf = buf[:l+n*size]
	return buf, buf[l:]
}

// viewBatch checks a Submit or Results payload once: the declared count
// must equal the number of whole entries the payload holds. The count is
// compared with a quotient, never multiplied, so no count can wrap into a
// match where int is 32 bits. It returns the id and the entry region.
func viewBatch(p []byte, t FrameType, size int) (uint64, []byte, error) {
	if len(p) < batchHeader {
		return 0, nil, errShortPayload
	}
	id := binary.LittleEndian.Uint64(p)
	count := binary.LittleEndian.Uint32(p[8:])
	e := p[batchHeader:]
	if len(e)%size != 0 || uint64(count) != uint64(len(e)/size) {
		return 0, nil, fmt.Errorf("wire: %v frame declares %d entries, payload holds %d bytes: %w",
			t, count, len(e), errShortPayload)
	}
	return id, e, nil
}

// putReq stores r as the Submit entry at the start of e: node u64, kind u8,
// child u64.
func putReq(e []byte, r Req) {
	x := (*[reqSize]byte)(e)
	binary.LittleEndian.PutUint64(x[0:], uint64(r.Node))
	x[8] = byte(r.Kind)
	binary.LittleEndian.PutUint64(x[9:], uint64(r.Child))
}

// getReq loads the Submit entry at the start of e.
func getReq(e []byte) Req {
	x := (*[reqSize]byte)(e)
	return Req{
		Node:  tree.NodeID(binary.LittleEndian.Uint64(x[0:])),
		Kind:  tree.ChangeKind(x[8]),
		Child: tree.NodeID(binary.LittleEndian.Uint64(x[9:])),
	}
}

// AppendSubmit appends an encoded Submit frame to buf.
func AppendSubmit(buf []byte, id uint64, reqs []Req) []byte {
	buf, e := growBatch(buf, FrameSubmit, id, len(reqs), reqSize)
	for i, r := range reqs {
		putReq(e[i*reqSize:], r)
	}
	return buf
}

// ResultEntries is the entry region of an encoded Results frame: fixed-width
// entries (outcome u8, code u8, serial u64, new node u64) stored and loaded
// in place by Set and At.
type ResultEntries []byte

// Len returns the number of entries.
func (e ResultEntries) Len() int { return len(e) / resSize }

// Set stores r as entry i.
func (e ResultEntries) Set(i int, r Result) {
	x := (*[resSize]byte)(e[i*resSize:])
	x[0], x[1] = r.Outcome, r.Code
	binary.LittleEndian.PutUint64(x[2:], uint64(r.Serial))
	binary.LittleEndian.PutUint64(x[10:], uint64(r.NewNode))
}

// At loads entry i.
func (e ResultEntries) At(i int) Result {
	x := (*[resSize]byte)(e[i*resSize:])
	return Result{
		Outcome: x[0],
		Code:    x[1],
		Serial:  int64(binary.LittleEndian.Uint64(x[2:])),
		NewNode: tree.NodeID(binary.LittleEndian.Uint64(x[10:])),
	}
}

// GrowResults appends a Results frame for id with n entries to buf, growing
// it once, and returns the extended buffer and the frame's entries. The
// caller must Set every entry before the frame is sent.
func GrowResults(buf []byte, id uint64, n int) ([]byte, ResultEntries) {
	return growBatch(buf, FrameResults, id, n, resSize)
}

// AppendResults appends an encoded Results frame to buf.
func AppendResults(buf []byte, id uint64, results []Result) []byte {
	buf, e := GrowResults(buf, id, len(results))
	for i, r := range results {
		e.Set(i, r)
	}
	return buf
}

// AppendRejectWave appends an encoded RejectWave frame to buf.
func AppendRejectWave(buf []byte, rw RejectWave) []byte {
	buf = appendHeader(buf, FrameRejectWave, 8)
	return binary.LittleEndian.AppendUint64(buf, uint64(rw.Granted))
}

// AppendError appends an encoded Error frame to buf. Details longer than
// 64 KiB are truncated so the frame always fits MaxFrame.
func AppendError(buf []byte, e ErrorFrame) []byte {
	detail := e.Detail
	if len(detail) > 1<<16 {
		detail = detail[:1<<16]
	}
	buf = appendHeader(buf, FrameError, 1+4+len(detail))
	buf = append(buf, e.Code)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(detail)))
	return append(buf, detail...)
}

// ReadFrame reads one frame from r, reusing *buf for the payload when it
// has capacity (growing it in place otherwise). It returns the frame type
// and the payload bytes, which stay valid until the next ReadFrame with the
// same buffer. io.EOF is returned untouched on a clean EOF at a frame
// boundary; a mid-frame EOF surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	// The length prefix is read into *buf too: a local array handed to
	// r.Read escapes, an allocation per frame. The type byte and the
	// payload then arrive in one read.
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, errFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	f := (*buf)[:n]
	if _, err := io.ReadFull(r, f); err != nil {
		return 0, nil, unexpected(err)
	}
	return FrameType(f[0]), f[1:], nil
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// byteReader is the minimal cursor shared by the payload decoders.
type byteReader struct {
	p   []byte
	off int
}

func (b *byteReader) u8() (uint8, error) {
	if b.off+1 > len(b.p) {
		return 0, errShortPayload
	}
	v := b.p[b.off]
	b.off++
	return v, nil
}

func (b *byteReader) u16() (uint16, error) {
	if b.off+2 > len(b.p) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint16(b.p[b.off:])
	b.off += 2
	return v, nil
}

func (b *byteReader) u32() (uint32, error) {
	if b.off+4 > len(b.p) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint32(b.p[b.off:])
	b.off += 4
	return v, nil
}

func (b *byteReader) u64() (uint64, error) {
	if b.off+8 > len(b.p) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(b.p[b.off:])
	b.off += 8
	return v, nil
}

// tenant reads a u16-length-prefixed tenant name and validates it.
func (b *byteReader) tenant() (string, error) {
	n, err := b.u16()
	if err != nil {
		return "", err
	}
	if b.off+int(n) > len(b.p) {
		return "", errShortPayload
	}
	name := string(b.p[b.off : b.off+int(n)])
	b.off += int(n)
	if !ValidTenant(name) {
		return "", fmt.Errorf("%w: %q", ErrBadTenant, name)
	}
	return name, nil
}

func (b *byteReader) trailing() error {
	if b.off != len(b.p) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(b.p)-b.off)
	}
	return nil
}

// DecodeHello decodes a Hello payload. The v1/v2 frame shape — a bare
// version with no tenant field — still decodes cleanly (Tenant ""), so a
// server can answer an old client with a typed CodeVersion error instead
// of tearing the connection down on a framing error. The v3 shape carries
// the tenant name, which is validated here.
func DecodeHello(p []byte) (Hello, error) {
	b := byteReader{p: p}
	v, err := b.u16()
	if err != nil {
		return Hello{}, err
	}
	if v < 3 {
		// Pre-tenancy Hello: nothing after the version.
		return Hello{Version: v}, b.trailing()
	}
	tenant, err := b.tenant()
	if err != nil {
		return Hello{}, err
	}
	return Hello{Version: v, Tenant: tenant}, b.trailing()
}

// DecodeWelcome decodes a Welcome payload (v3 shape).
func DecodeWelcome(p []byte) (Welcome, error) {
	b := byteReader{p: p}
	var w Welcome
	v, err := b.u16()
	if err != nil {
		return w, err
	}
	w.Version = v
	tenant, err := b.tenant()
	if err != nil {
		return w, err
	}
	w.Tenant = tenant
	m, err := b.u64()
	if err != nil {
		return w, err
	}
	w.M = int64(m)
	wv, err := b.u64()
	if err != nil {
		return w, err
	}
	w.W = int64(wv)
	sig, err := b.u64()
	if err != nil {
		return w, err
	}
	w.TopoSig = sig
	inc, err := b.u64()
	if err != nil {
		return w, err
	}
	w.Incarnation = inc
	return w, b.trailing()
}

// AppendDecodeSubmit decodes a Submit payload, appending its requests to dst
// and returning the extended slice and the frame's id. The declared count
// is validated against the payload length before dst grows, so a hostile
// count cannot drive a large allocation. On error it returns dst as given;
// either way dst's existing elements are left untouched.
func AppendDecodeSubmit(dst []Req, p []byte) ([]Req, uint64, error) {
	id, e, err := viewBatch(p, FrameSubmit, reqSize)
	if err != nil {
		return dst, 0, err
	}
	n := len(dst)
	out := slices.Grow(dst, len(e)/reqSize)[:n+len(e)/reqSize]
	for i := range out[n:] {
		r := getReq(e[i*reqSize:])
		if r.Kind > tree.RemoveInternal {
			return dst, 0, fmt.Errorf("%w: %d", errBadKind, r.Kind)
		}
		out[n+i] = r
	}
	return out, id, nil
}

// DecodeSubmit decodes a Submit payload into s, reusing s.Reqs when it has
// capacity.
func DecodeSubmit(p []byte, s *Submit) error {
	reqs, id, err := AppendDecodeSubmit(s.Reqs[:0], p)
	if err != nil {
		return err
	}
	s.ID, s.Reqs = id, reqs
	return nil
}

// ViewResults checks a Results payload and returns its id and its entries,
// which alias p.
func ViewResults(p []byte) (uint64, ResultEntries, error) {
	return viewBatch(p, FrameResults, resSize)
}

// DecodeResults decodes a Results payload into rs, reusing rs.Results when
// it has capacity.
func DecodeResults(p []byte, rs *Results) error {
	id, e, err := ViewResults(p)
	if err != nil {
		return err
	}
	rs.ID = id
	rs.Results = slices.Grow(rs.Results[:0], e.Len())[:e.Len()]
	for i := range rs.Results {
		rs.Results[i] = e.At(i)
	}
	return nil
}

// DecodeRejectWave decodes a RejectWave payload.
func DecodeRejectWave(p []byte) (RejectWave, error) {
	b := byteReader{p: p}
	g, err := b.u64()
	if err != nil {
		return RejectWave{}, err
	}
	return RejectWave{Granted: int64(g)}, b.trailing()
}

// DecodeError decodes an Error payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	b := byteReader{p: p}
	code, err := b.u8()
	if err != nil {
		return ErrorFrame{}, err
	}
	n, err := b.u32()
	if err != nil {
		return ErrorFrame{}, err
	}
	if int(n) != len(p)-b.off {
		return ErrorFrame{}, fmt.Errorf("wire: error detail declares %d bytes, payload holds %d: %w",
			n, len(p)-b.off, errShortPayload)
	}
	detail := string(p[b.off:])
	return ErrorFrame{Code: code, Detail: detail}, nil
}
