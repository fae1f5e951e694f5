//go:build linux

package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns both ends of one loopback TCP connection: srv, the side
// the tests wrap with RawSocket, and peer, a plain net.Conn.
func tcpPair(t *testing.T) (srv, peer *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // a failed accept shows as a nil conn below
		accepted <- c
	}()
	pc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	srv, peer = sc.(*net.TCPConn), pc.(*net.TCPConn)
	t.Cleanup(func() { srv.Close(); peer.Close() })
	return srv, peer
}

// rawOf wraps tc and fails unless RawSocket took the raw path.
func rawOf(t *testing.T, tc *net.TCPConn) *rawSock {
	t.Helper()
	rw, err := RawSocket(tc)
	s, ok := rw.(*rawSock)
	if err != nil || !ok {
		t.Fatalf("RawSocket(%T) is %T, %v; want a *rawSock", tc, rw, err)
	}
	return s
}

func TestRawSockRoundTrip(t *testing.T) {
	srv, peer := tcpPair(t)
	s := rawOf(t, srv)
	if _, err := peer.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "hello" {
		t.Fatalf("read %q, %v; want \"hello\"", got, err)
	}
	if n, err := s.Write([]byte("world")); n != 5 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if _, err := io.ReadFull(peer, got); err != nil || string(got) != "world" {
		t.Fatalf("peer read %q, %v; want \"world\"", got, err)
	}
}

// TestRawSockEOF: zero bytes read is io.EOF, bare, whether the peer closed
// or the conn's own CloseRead (the daemon's drain) shut the read side under
// a parked read.
func TestRawSockEOF(t *testing.T) {
	t.Run("peer closes", func(t *testing.T) {
		srv, peer := tcpPair(t)
		s := rawOf(t, srv)
		peer.Close()
		if n, err := s.Read(make([]byte, 16)); n != 0 || err != io.EOF {
			t.Fatalf("read after the peer closed: %d, %v; want 0, io.EOF", n, err)
		}
	})
	t.Run("CloseRead", func(t *testing.T) {
		srv, _ := tcpPair(t)
		s := rawOf(t, srv)
		done := make(chan error, 1)
		go func() {
			_, err := s.Read(make([]byte, 16))
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the read park on the poller
		if err := srv.CloseRead(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != io.EOF {
				t.Fatalf("read after CloseRead: %v, want io.EOF", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("CloseRead did not wake a parked read")
		}
	})
}

// TestRawSockReadDeadline: the path the daemon's -idle-timeout and the
// client's handshake deadline rely on. A read that outlives its deadline
// ends in a timeout net.Error that is os.ErrDeadlineExceeded. (That the
// client's reads name it a *net.OpError "read" is TestClientSockErrorShapes'.)
func TestRawSockReadDeadline(t *testing.T) {
	srv, _ := tcpPair(t)
	s := rawOf(t, srv)
	if err := srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Read(make([]byte, 16))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want a timeout net.Error", err)
	}
}

// shrink caps the two socket buffers between srv and peer at 64 KiB
// each (the kernel doubles that), so a write of a few MiB outruns them;
// buffers at their floor make the transfer crawl.
func shrink(t *testing.T, srv, peer *net.TCPConn) {
	t.Helper()
	if err := srv.SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := peer.SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
}

// TestRawSockWriteParksAndResumes: a write larger than both socket buffers,
// to a peer that drains late, parks on EAGAIN and resumes at the partial
// offset, so the peer reads every byte once and in order.
func TestRawSockWriteParksAndResumes(t *testing.T) {
	srv, peer := tcpPair(t)
	shrink(t, srv, peer)
	s := rawOf(t, srv)
	want := make([]byte, 4<<20)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range want {
		want[i] = byte(r.Uint32())
	}
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // the write fills both buffers first
		b, _ := io.ReadAll(peer)
		got <- b
	}()
	n, err := s.Write(want)
	if n != len(want) || err != nil {
		t.Fatalf("write: %d, %v; want %d, nil", n, err, len(want))
	}
	srv.Close()
	b := <-got
	if !bytes.Equal(b, want) {
		i := 0
		for i < min(len(b), len(want)) && b[i] == want[i] {
			i++
		}
		t.Fatalf("peer read %d bytes, want %d; first difference at %d", len(b), len(want), i)
	}
}

// TestRawSockWriteDeadline: a write to a peer that never reads ends in a
// timeout net.Error once its deadline passes, having written part of it,
// as the client's Options.WriteTimeout relies on.
func TestRawSockWriteDeadline(t *testing.T) {
	srv, peer := tcpPair(t)
	shrink(t, srv, peer)
	s := rawOf(t, srv)
	if err := srv.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<20)
	n, err := s.Write(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %v, want a timeout net.Error", err)
	}
	if n <= 0 || n >= len(buf) {
		t.Fatalf("write past its deadline wrote %d of %d bytes", n, len(buf))
	}
}

// TestRawSockErrors: after the *net.TCPConn's Close both directions report
// net.ErrClosed, and an errno (a reset) comes wrapped in an
// *os.SyscallError. (The *net.OpError around them is the client's:
// TestClientSockErrorShapes.)
func TestRawSockErrors(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		srv, _ := tcpPair(t)
		s := rawOf(t, srv)
		srv.Close()
		_, rerr := s.Read(make([]byte, 16))
		_, werr := s.Write([]byte("x"))
		for op, err := range map[string]error{"read": rerr, "write": werr} {
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("%s after Close: %v, want net.ErrClosed", op, err)
			}
		}
	})
	t.Run("reset", func(t *testing.T) {
		srv, peer := tcpPair(t)
		s := rawOf(t, srv)
		if err := peer.SetLinger(0); err != nil {
			t.Fatal(err)
		}
		peer.Close() // linger 0: the close sends a RST
		time.Sleep(20 * time.Millisecond)
		_, err := s.Read(make([]byte, 16))
		var se *os.SyscallError
		if !errors.As(err, &se) || se.Syscall != "read" || !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read after a reset: %v, want read's ECONNRESET in an *os.SyscallError", err)
		}
	})
}

// TestRawSockAllocatesNothing: a read and a write allocate nothing. Passing
// RawConn a fresh closure each call allocates once a call.
func TestRawSockAllocatesNothing(t *testing.T) {
	srv, peer := tcpPair(t)
	s := rawOf(t, srv)
	const runs, size = 100, 64
	buf := make([]byte, size)
	// Every byte read is on the loopback before the first read, and every
	// byte written fits the peer's buffers: nothing parks.
	if _, err := peer.Write(make([]byte, (runs+1)*size)); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Read: %v allocations a call, want 0", a)
	}
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := s.Write(buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Write: %v allocations a call, want 0", a)
	}
}
