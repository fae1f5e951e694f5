package faultnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// mkFrame builds one wire-framing-compatible frame: 4-byte big-endian
// length (type byte + payload), the type byte, the payload.
func mkFrame(ft byte, payload []byte) []byte {
	buf := make([]byte, 4, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf = append(buf, ft)
	return append(buf, payload...)
}

// readFrame reads one frame (header included) from r.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	_, err := io.ReadFull(r, buf[4:])
	return buf, err
}

// echoUpstream accepts connections and echoes every received frame back,
// recording the frames each connection delivered.
type echoUpstream struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	frames [][]byte // every frame received, across conns, in receive order
	errs   []error  // terminal read error per conn
}

func newEchoUpstream(t *testing.T) *echoUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	u := &echoUpstream{ln: ln}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			u.wg.Add(1)
			go func(nc net.Conn) {
				defer u.wg.Done()
				defer nc.Close()
				for {
					f, err := readFrame(nc)
					if err != nil {
						u.mu.Lock()
						u.errs = append(u.errs, err)
						u.mu.Unlock()
						return
					}
					u.mu.Lock()
					u.frames = append(u.frames, f)
					u.mu.Unlock()
					if _, err := nc.Write(f); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	t.Cleanup(func() { ln.Close(); u.wg.Wait() })
	return u
}

func (u *echoUpstream) received() [][]byte {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([][]byte(nil), u.frames...)
}

func startProxy(t *testing.T, upstream string, seed int64, rules []Rule) *Proxy {
	t.Helper()
	p, err := Start(Config{Upstream: upstream, Seed: seed, Rules: rules})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	return nc
}

func TestCleanProxyPassesFramesThrough(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, nil)
	nc := dialProxy(t, p)

	for i := 0; i < 3; i++ {
		f := mkFrame(3, bytes.Repeat([]byte{byte(i)}, 10+i))
		if _, err := nc.Write(f); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
		got, err := readFrame(nc)
		if err != nil {
			t.Fatalf("read echo %d: %v", i, err)
		}
		if !bytes.Equal(got, f) {
			t.Fatalf("echo %d mismatch: % x vs % x", i, got, f)
		}
	}
	if ev := p.Events(); len(ev) != 0 {
		t.Fatalf("clean proxy recorded events: %v", ev)
	}
}

func TestKillPreHandshake(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: killPreHandshake, Conn: 0},
	})
	nc := dialProxy(t, p)

	// The connection dies before any byte crosses; a read must fail fast.
	nc.Write(mkFrame(1, []byte("hello"))) //nolint:errcheck
	if _, err := readFrame(nc); err == nil {
		t.Fatal("read on a pre-handshake-killed connection succeeded")
	}
	want := "conn=0 dir=c2s frame=-1 fault=kill-pre-handshake rule=0\n"
	if got := FormatEvents(p.Events()); got != want {
		t.Fatalf("events:\n%swant:\n%s", got, want)
	}
	if n := len(u.received()); n != 0 {
		t.Fatalf("upstream saw %d frames through a pre-handshake kill", n)
	}

	// The next connection (ordinal 1) is unaffected.
	nc2 := dialProxy(t, p)
	f := mkFrame(3, []byte("ok"))
	if _, err := nc2.Write(f); err != nil {
		t.Fatalf("write on conn 1: %v", err)
	}
	if _, err := readFrame(nc2); err != nil {
		t.Fatalf("conn 1 should be clean: %v", err)
	}
}

func TestKillBetweenFrames(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: Kill, Dir: ClientToServer, Conn: -1, Frame: 2},
	})
	nc := dialProxy(t, p)

	for i := 0; i < 2; i++ {
		if _, err := nc.Write(mkFrame(3, []byte{byte(i)})); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := readFrame(nc); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
	}
	// Frame 2 is swallowed and both sides die: upstream must never see it.
	nc.Write(mkFrame(3, []byte("doomed"))) //nolint:errcheck
	if _, err := readFrame(nc); err == nil {
		t.Fatal("read after kill frame succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(u.received()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := u.received(); len(got) != 2 {
		t.Fatalf("upstream saw %d frames, want exactly the 2 pre-kill ones", len(got))
	}
}

func TestKillMidFrameTruncates(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: KillMidFrame, Dir: ClientToServer, Conn: 0, Frame: 1},
	})
	nc := dialProxy(t, p)

	if _, err := nc.Write(mkFrame(3, []byte("first"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readFrame(nc); err != nil {
		t.Fatalf("echo: %v", err)
	}
	nc.Write(mkFrame(3, bytes.Repeat([]byte{7}, 64))) //nolint:errcheck
	if _, err := readFrame(nc); err == nil {
		t.Fatal("read after mid-frame kill succeeded")
	}
	// The upstream's read of the truncated frame must fail mid-payload.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		u.mu.Lock()
		n := len(u.errs)
		u.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.errs) == 0 {
		t.Fatal("upstream never saw the truncated stream end")
	}
	if len(u.frames) != 1 {
		t.Fatalf("upstream decoded %d whole frames, want 1 (the truncated one must not parse)", len(u.frames))
	}
}

func TestDupDeliversFrameTwice(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: Dup, Dir: ClientToServer, Conn: 0, Frame: 0},
	})
	nc := dialProxy(t, p)

	f := mkFrame(3, []byte("twice"))
	if _, err := nc.Write(f); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < 2; i++ {
		got, err := readFrame(nc)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if !bytes.Equal(got, f) {
			t.Fatalf("echo %d mismatch", i)
		}
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: reorder, Dir: ClientToServer, Conn: 0, Frame: 1},
	})
	nc := dialProxy(t, p)

	a, b, c := mkFrame(3, []byte("A")), mkFrame(3, []byte("B")), mkFrame(3, []byte("C"))
	for _, f := range [][]byte{a, b, c} {
		if _, err := nc.Write(f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// B is held and forwarded after C: upstream receives A, C, B.
	want := [][]byte{a, c, b}
	for i, w := range want {
		got, err := readFrame(nc)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("echo %d: got % x want % x", i, got, w)
		}
	}
}

func TestSlowLorisAndStallPaceDelivery(t *testing.T) {
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), 1, []Rule{
		{Kind: SlowLoris, Dir: ClientToServer, Conn: 0, Frame: 0,
			Delay: 2 * time.Millisecond, Chunk: 1},
		{Kind: Stall, Dir: ClientToServer, Conn: 0, Frame: 1,
			Delay: 100 * time.Millisecond},
	})
	nc := dialProxy(t, p)

	// Frame 0 is 25 bytes dribbled one per 2ms: the echo cannot arrive in
	// under ~48ms. Frame 1 stalls 100ms before forwarding.
	start := time.Now()
	if _, err := nc.Write(mkFrame(3, bytes.Repeat([]byte{1}, 20))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readFrame(nc); err != nil {
		t.Fatalf("slow-loris echo: %v", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("slow-loris frame arrived in %v, want >=40ms of dribbling", el)
	}

	start = time.Now()
	if _, err := nc.Write(mkFrame(3, []byte("stalled"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readFrame(nc); err != nil {
		t.Fatalf("stalled echo: %v", err)
	}
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Fatalf("stalled frame arrived in %v, want >=80ms", el)
	}
	got := FormatEvents(p.Events())
	want := "conn=0 dir=c2s frame=0 fault=slow-loris rule=0\n" +
		"conn=0 dir=c2s frame=1 fault=stall rule=1\n"
	if got != want {
		t.Fatalf("events:\n%swant:\n%s", got, want)
	}
}

// driveScript runs a fixed exchange through a fresh proxy: conns dialed
// sequentially (so ordinals are deterministic), each sending a fixed
// number of frames and reading echoes until the connection dies. It
// returns the canonical event log.
func driveScript(t *testing.T, seed int64, rules []Rule) string {
	t.Helper()
	u := newEchoUpstream(t)
	p := startProxy(t, u.ln.Addr().String(), seed, rules)
	defer p.Close()

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		nc, err := net.DialTimeout("tcp", p.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial conn %d: %v", c, err)
		}
		nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		// Wait until the proxy has accepted it, so ordinals match dial order.
		for p.Conns() < c+1 {
			time.Sleep(time.Millisecond)
		}
		wg.Add(1)
		go func(c int, nc net.Conn) {
			defer wg.Done()
			defer nc.Close()
			// Pipelined: write everything, half-close, drain echoes until
			// the EOF ripples back (a strict request-reply loop would
			// deadlock against the reorder fault, which holds an echo back
			// until its successor flows).
			for i := 0; i < 8; i++ {
				if _, err := nc.Write(mkFrame(3, []byte{byte(c), byte(i)})); err != nil {
					break
				}
			}
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.CloseWrite() //nolint:errcheck
			}
			for {
				if _, err := readFrame(nc); err != nil {
					return
				}
			}
		}(c, nc)
	}
	wg.Wait()
	// Kills race the last echo read: give in-flight pumps a beat to log.
	time.Sleep(50 * time.Millisecond)
	return FormatEvents(p.Events())
}

func TestEventLogReproducible(t *testing.T) {
	rules := []Rule{
		{Kind: Dup, Dir: ClientToServer, Conn: 1, Frame: 3},
		{Kind: reorder, Dir: ServerToClient, Conn: 2, Frame: 2},
		// Probabilistic dribbling: must fire at identical coordinates for
		// identical seeds.
		{Kind: SlowLoris, Dir: ClientToServer, Conn: -1, Frame: -1,
			Prob: 0.3, Delay: time.Microsecond, Chunk: 16},
		{Kind: Kill, Dir: ClientToServer, Conn: 0, Frame: 6},
	}
	a := driveScript(t, 42, rules)
	b := driveScript(t, 42, rules)
	if a != b {
		t.Fatalf("same (schedule, seed) produced different event logs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if a == "" {
		t.Fatal("schedule fired no events at all")
	}
	c := driveScript(t, 43, rules)
	if a == c {
		t.Log("note: different seed produced an identical log (possible but unlikely)")
	}
}
