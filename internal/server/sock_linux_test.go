//go:build linux

package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dynctrl/internal/wire"
)

// TestSrvConnTakesRawPath: the serve loop reads and writes a TCP conn
// through wire's raw socket, and any other conn through itself.
func TestSrvConnTakesRawPath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if c := newSrvConn(nil, nc); fmt.Sprintf("%T", c.sock) != "*wire.rawSock" {
		t.Fatalf("newSrvConn over a *net.TCPConn reads through %T, want *wire.rawSock", c.sock)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if c := newSrvConn(nil, a); c.sock != net.Conn(a) {
		t.Fatalf("newSrvConn over net.Pipe reads through %T, want the conn itself", c.sock)
	}
}

// TestSrvConnOverListenerConn: a connection the daemon's listener accepts
// is a *wire.Conn, whose Read and Write are the raw path already, so the
// serve loop reads and writes it through itself and names its peer by the
// address it dialled from.
func TestSrvConnOverListenerConn(t *testing.T) {
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	c := newSrvConn(nil, wc)
	if c.sock != io.ReadWriter(wc) {
		t.Fatalf("newSrvConn over a *wire.Conn reads through %T, want the conn itself", c.sock)
	}
	if c.remote != nc.LocalAddr().String() {
		t.Fatalf("remote %q, want %q", c.remote, nc.LocalAddr())
	}
}

// TestStartRefusesHostName: a listen address whose host is neither an IP
// literal nor localhost is refused at Start, naming the listener (dynctrld's
// -addr or -metrics) and the host; nothing stays bound.
func TestStartRefusesHostName(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Addr: "dynctrld.invalid:0"}, `addr: wire: listen "dynctrld.invalid:0": host "dynctrld.invalid"`},
		{Config{Addr: "127.0.0.1:0", MetricsAddr: "metrics.invalid:0"}, `metrics: wire: listen "metrics.invalid:0": host "metrics.invalid"`},
	} {
		c.cfg.Tenants = oneTenant(star4, 1, 4, 1)
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Start()
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Start with %+v: %v, want an error starting %q", c.cfg, err, c.want)
		}
		if err == nil {
			s.Shutdown(context.Background()) //nolint:errcheck
		}
	}
}
