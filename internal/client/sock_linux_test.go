//go:build linux

package client_test

import (
	"fmt"
	"net"
	"testing"

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
