//go:build linux

package server

import (
	"fmt"
	"net"
	"testing"
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
