//go:build !linux

package wire

import (
	"io"
	"net"
)

// RawSocket returns nc unchanged: the raw read(2)/write(2) path of
// sock_linux.go is Linux only.
func RawSocket(nc net.Conn) io.ReadWriter { return nc }
