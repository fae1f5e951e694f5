//go:build linux

package wire

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// listen opens a Listener on addr and closes it when the test ends.
func listen(t *testing.T, addr string) *Listener {
	t.Helper()
	l, err := Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%q): %v", addr, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// accepted dials l at dial and returns both ends: srv, l's *Conn, and peer.
func accepted(t *testing.T, l *Listener, dial string) (srv *Conn, peer *net.TCPConn) {
	t.Helper()
	type result struct {
		c   *Conn
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		done <- result{c, err}
	}()
	nc, err := net.Dial("tcp", dial)
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		nc.Close()
		t.Fatalf("Accept: %v", r.err)
	}
	t.Cleanup(func() { r.c.Close(); nc.Close() })
	return r.c, nc.(*net.TCPConn)
}

// port is the port of a "host:port" address.
func port(addr string) string { return addr[strings.LastIndexByte(addr, ':')+1:] }

// TestListenAddressForms: the forms -addr and -metrics take, each dialed and
// read through, with the bound and remote addresses net.Listen would print;
// a host name is refused before anything is bound.
func TestListenAddressForms(t *testing.T) {
	for _, c := range []struct {
		addr, dialHost, boundHost, remoteHost string
		v6                                    bool
	}{
		{"127.0.0.1:0", "127.0.0.1", "127.0.0.1", "127.0.0.1", false},
		{"localhost:0", "127.0.0.1", "127.0.0.1", "127.0.0.1", false},
		{":0", "127.0.0.1", "[::]", "127.0.0.1", false}, // dual-stack: an IPv4 peer, unmapped
		{"0.0.0.0:0", "127.0.0.1", "[::]", "127.0.0.1", false},
		{"[::1]:0", "[::1]", "[::1]", "[::1]", true},
		{"[::ffff:127.0.0.1]:0", "127.0.0.1", "127.0.0.1", "127.0.0.1", false},
	} {
		t.Run(c.addr, func(t *testing.T) {
			l, err := Listen(c.addr)
			if c.v6 && err != nil {
				t.Skipf("no IPv6 loopback: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if c.boundHost == "[::]" && strings.HasPrefix(l.Addr(), "0.0.0.0:") {
				c.boundHost = "0.0.0.0" // no IPv6 here: net.Listen falls back the same way
			}
			if got, want := l.Addr(), c.boundHost+":"+port(l.Addr()); got != want || port(got) == "0" {
				t.Fatalf("Addr() = %q, want %q with a port", got, want)
			}
			srv, peer := accepted(t, l, c.dialHost+":"+port(l.Addr()))
			if got, want := srv.RemoteAddr(), peer.LocalAddr().String(); got != want || !strings.HasPrefix(got, c.remoteHost+":") {
				t.Fatalf("RemoteAddr() = %q, want %q", got, want)
			}
			if _, err := peer.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 4)
			if _, err := io.ReadFull(srv, b); err != nil || string(b) != "ping" {
				t.Fatalf("read %q, %v", b, err)
			}
		})
	}
	for _, addr := range []string{"example.com:7700", "dynctrld.invalid:0", "127.0.0.1", "127.0.0.1:http", "127.0.0.1:65536", "[fe80::1%lo]:0"} {
		if l, err := Listen(addr); err == nil {
			l.Close()
			t.Errorf("Listen(%q) succeeded, want it refused", addr)
		} else if !strings.Contains(err.Error(), addr) {
			t.Errorf("Listen(%q): %v, want an error naming the address", addr, err)
		}
	}
}

// TestListenSocketOptions: what net.Listen sets, read back with getsockopt:
// SO_REUSEADDR on the listener; TCP_NODELAY (without it Nagle holds back a
// small Results frame) and keep-alives at 15 s on an accepted socket.
func TestListenSocketOptions(t *testing.T) {
	l := listen(t, "127.0.0.1:0")
	srv, _ := accepted(t, l, l.Addr())
	get := func(rc syscall.RawConn, level, opt int) int {
		t.Helper()
		var v int
		var err error
		if cerr := rc.Control(func(fd uintptr) { v, err = syscall.GetsockoptInt(int(fd), level, opt) }); cerr != nil || err != nil {
			t.Fatalf("getsockopt: %v, %v", cerr, err)
		}
		return v
	}
	if get(l.rc, syscall.SOL_SOCKET, syscall.SO_REUSEADDR) == 0 {
		t.Error("listener: SO_REUSEADDR is off")
	}
	for _, o := range []struct {
		name       string
		level, opt int
		want       int
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	} {
		if got := get(srv.rc, o.level, o.opt); (got != 0) != (o.want != 0) || (o.want > 1 && got != o.want) {
			t.Errorf("accepted socket: %s = %d, want %d", o.name, got, o.want)
		}
	}
}

// TestListenRebindsOverTimeWait: a daemon that is killed and restarted
// binds its port again while the connections it closed first sit in
// TIME_WAIT, as SO_REUSEADDR lets it.
func TestListenRebindsOverTimeWait(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	for range 3 {
		srv, peer := accepted(t, l, addr)
		srv.Close() // the daemon's end closes first: it goes to TIME_WAIT
		if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("peer read after the close: %v, want io.EOF", err)
		}
		peer.Close()
	}
	l.Close()
	l2, err := Listen(addr)
	if err != nil {
		t.Fatalf("rebinding %s over TIME_WAIT: %v", addr, err)
	}
	l2.Close()
}

// TestListenAcceptUnblocksOnClose: an Accept parked on the poller returns an
// error once Close is called, which is how the daemon's accept loops end.
func TestListenAcceptUnblocksOnClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept park
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept after Close returned a connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake a parked Accept")
	}
}

// TestConnErrors: an accepted Conn's reads end as the serve loop expects:
// io.EOF after CloseRead (the drain) or after the peer's CloseWrite, a
// deadline in os.ErrDeadlineExceeded (the idle timeout), an error once
// closed, and a reset in read's ECONNRESET inside an *os.SyscallError.
func TestConnErrors(t *testing.T) {
	l := listen(t, "127.0.0.1:0")
	t.Run("CloseRead", func(t *testing.T) {
		srv, _ := accepted(t, l, l.Addr())
		done := make(chan error, 1)
		go func() {
			_, err := srv.Read(make([]byte, 16))
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
	t.Run("CloseWrite", func(t *testing.T) {
		srv, peer := accepted(t, l, l.Addr())
		if _, err := srv.Write([]byte("bye")); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if b, err := io.ReadAll(peer); err != nil || string(b) != "bye" {
			t.Fatalf("peer read %q, %v after CloseWrite; want \"bye\" then EOF", b, err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		srv, _ := accepted(t, l, l.Addr())
		if err := srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Read(make([]byte, 16)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past its deadline: %v, want os.ErrDeadlineExceeded", err)
		}
		if err := srv.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write past its deadline: %v, want os.ErrDeadlineExceeded", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		srv, _ := accepted(t, l, l.Addr())
		srv.Close()
		if _, err := srv.Read(make([]byte, 16)); err == nil || err == io.EOF {
			t.Errorf("read after Close: %v, want an error", err)
		}
		if _, err := srv.Write([]byte("x")); err == nil {
			t.Error("write after Close succeeded")
		}
	})
	t.Run("reset", func(t *testing.T) {
		srv, peer := accepted(t, l, l.Addr())
		if err := peer.SetLinger(0); err != nil {
			t.Fatal(err)
		}
		peer.Close() // linger 0: the close sends a RST
		time.Sleep(20 * time.Millisecond)
		_, err := srv.Read(make([]byte, 16))
		var se *os.SyscallError
		if !errors.As(err, &se) || se.Syscall != "read" || !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read after a reset: %v, want read's ECONNRESET in an *os.SyscallError", err)
		}
	})
}

// TestConnAllocatesNothing: an accepted Conn's Read and Write, the raw path
// the serve loop runs on, allocate nothing.
func TestConnAllocatesNothing(t *testing.T) {
	l := listen(t, "127.0.0.1:0")
	srv, peer := accepted(t, l, l.Addr())
	const runs, size = 100, 64
	buf := make([]byte, size)
	if _, err := peer.Write(make([]byte, (runs+1)*size)); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := io.ReadFull(srv, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Read: %v allocations a call, want 0", a)
	}
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := srv.Write(buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Write: %v allocations a call, want 0", a)
	}
}
