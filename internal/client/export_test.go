package client

import (
	"fmt"
	"io"
	"net"
)

// BreakConnForTest force-fails pooled connection i, as if its socket died:
// the connection is marked dead and every pending call on it errors. Tests
// use it to exercise failover without depending on kernel-level timing.
func (c *Client) BreakConnForTest(i int) {
	cc := c.conns[i%len(c.conns)]
	cc.failAll(fmt.Errorf("client: connection broken by test"))
}

// SockForTest returns what pooled connection i reads and writes through:
// the raw socket under a TCP conn's error shaping, or the conn itself.
func (c *Client) SockForTest(i int) io.ReadWriter {
	if ts, ok := c.conns[i%len(c.conns)].sock.(*tcpSock); ok {
		return ts.raw
	}
	return c.conns[i%len(c.conns)].sock
}

// SockOverForTest returns what a pooled connection over nc would read and
// write through.
func SockOverForTest(nc net.Conn) io.ReadWriter { return newCliConn(nil, nc).sock }
