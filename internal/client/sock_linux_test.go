//go:build linux

package client_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
)

// TestClientTakesRawPath: a dialed connection reads and writes through
// wire's raw socket, its Hello and Submit frames and its Results alike, and
// any other conn is read and written through itself.
func TestClientTakesRawPath(t *testing.T) {
	cl, err := client.Dial(startStub(t, grantAll()), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if sock := cl.SockForTest(0); fmt.Sprintf("%T", sock) != "*wire.rawSock" {
		t.Fatalf("a dialed connection reads through %T, want *wire.rawSock", sock)
	}
	res, err := cl.SubmitMany(stubRun(4), nil)
	if err != nil || len(res) != 4 || res[3].Grant.Outcome != controller.Granted || res[3].Grant.Serial != 4 {
		t.Fatalf("SubmitMany over the raw socket: %+v, %v", res, err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if sock := client.SockOverForTest(a); sock != net.Conn(a) {
		t.Fatalf("a connection over net.Pipe reads through %T, want the conn itself", sock)
	}
}

// tcpPair returns both ends of one loopback TCP connection: cli, the side
// the tests read and write as a pooled connection does, and peer.
func tcpPair(t *testing.T) (cli, peer *net.TCPConn) {
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
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := <-accepted
	if pc == nil {
		t.Fatal("accept failed")
	}
	cli, peer = cc.(*net.TCPConn), pc.(*net.TCPConn)
	t.Cleanup(func() { cli.Close(); peer.Close() })
	return cli, peer
}

// wantOpError fails unless err is a *net.OpError named op, as net.Conn's
// Read and Write return theirs.
func wantOpError(t *testing.T, err error, op string) *net.OpError {
	t.Helper()
	var oe *net.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v (%T) is not a *net.OpError", err, err)
	}
	if oe.Op != op {
		t.Fatalf("error %v has Op %q, want %q", err, oe.Op, op)
	}
	return oe
}

// TestClientSockErrorShapes: a pooled TCP connection's raw reads and writes
// fail as net.Conn's do, in a *net.OpError named "read" or "write": past a
// deadline a timeout net.Error, after Close net.ErrClosed, on a reset read's
// ECONNRESET in an *os.SyscallError. The raw socket returns them bare
// (internal/wire's TestRawSock*); the client names them.
func TestClientSockErrorShapes(t *testing.T) {
	t.Run("read deadline", func(t *testing.T) {
		cli, _ := tcpPair(t)
		s := client.SockOverForTest(cli)
		if err := cli.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := s.Read(make([]byte, 16))
		wantOpError(t, err, "read")
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("read past its deadline: %v, want a timeout net.Error", err)
		}
	})
	t.Run("write deadline", func(t *testing.T) {
		cli, peer := tcpPair(t)
		if err := cli.SetWriteBuffer(64 << 10); err != nil {
			t.Fatal(err)
		}
		if err := peer.SetReadBuffer(64 << 10); err != nil {
			t.Fatal(err)
		}
		s := client.SockOverForTest(cli)
		if err := cli.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4<<20)
		n, err := s.Write(buf)
		wantOpError(t, err, "write")
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("write past its deadline: %v, want a timeout net.Error", err)
		}
		if n <= 0 || n >= len(buf) {
			t.Fatalf("write past its deadline wrote %d of %d bytes", n, len(buf))
		}
	})
	t.Run("closed", func(t *testing.T) {
		cli, _ := tcpPair(t)
		s := client.SockOverForTest(cli)
		cli.Close()
		_, rerr := s.Read(make([]byte, 16))
		_, werr := s.Write([]byte("x"))
		for op, err := range map[string]error{"read": rerr, "write": werr} {
			wantOpError(t, err, op)
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("%s after Close: %v, want net.ErrClosed", op, err)
			}
		}
	})
	t.Run("reset", func(t *testing.T) {
		cli, peer := tcpPair(t)
		s := client.SockOverForTest(cli)
		if err := peer.SetLinger(0); err != nil {
			t.Fatal(err)
		}
		peer.Close() // linger 0: the close sends a RST
		time.Sleep(20 * time.Millisecond)
		_, err := s.Read(make([]byte, 16))
		oe := wantOpError(t, err, "read")
		var se *os.SyscallError
		if !errors.As(oe.Err, &se) || se.Syscall != "read" || !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read after a reset: %v, want read's ECONNRESET in an *os.SyscallError", err)
		}
	})
	t.Run("eof", func(t *testing.T) {
		cli, peer := tcpPair(t)
		s := client.SockOverForTest(cli)
		peer.Close()
		if n, err := s.Read(make([]byte, 16)); n != 0 || err != io.EOF {
			t.Fatalf("read after the peer closed: %d, %v; want 0, io.EOF", n, err)
		}
	})
}
