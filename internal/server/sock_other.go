//go:build !linux

package server

import (
	"io"
	"net"
)

// rawSocket returns nc unchanged: the raw read(2)/write(2) path of
// sock_linux.go is Linux only.
func rawSocket(nc net.Conn) io.ReadWriter { return nc }
