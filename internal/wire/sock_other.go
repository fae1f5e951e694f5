//go:build !linux

package wire

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// RawSocket reports errors.ErrUnsupported: sock_linux.go's raw path is Linux only.
func RawSocket(syscall.Conn) (io.ReadWriter, error) { return nil, errors.ErrUnsupported }

// Listener is net.Listen's, the portability fallback off Linux.
type Listener struct{ net.Listener }

func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	return &Listener{ln}, err
}

func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.Listener.Accept()
	tc, _ := nc.(*net.TCPConn) // nil with err
	return &Conn{tc}, err
}

func (l *Listener) Addr() string { return l.Listener.Addr().String() }

// Conn is an accepted *net.TCPConn, its peer's address a string.
type Conn struct{ *net.TCPConn }

func (c *Conn) RemoteAddr() string { return c.TCPConn.RemoteAddr().String() }
