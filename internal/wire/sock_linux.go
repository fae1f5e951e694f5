//go:build linux

package wire

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rawSock reads and writes a connection's non-blocking fd with raw read(2)
// and write(2) calls, inside RawConn.Read and RawConn.Write: on EAGAIN the
// callback reports false and the goroutine parks on the runtime poller,
// and deadlines and Close act as they do on the fd's owner. A raw syscall
// never enters the runtime's syscall state, so the runtime never hands the
// P to another thread around it, as it does around net.Conn's Read and
// Write when the peer is woken onto the same CPU before the call returns.
// The cost is that a call the kernel preempts keeps its P until it
// returns; at fan-in over two Ps (internal/server's BenchmarkFanin*,
// -cpu 2) that showed no loss. Errors come back bare: the poller's as
// RawConn returns them, an errno in an *os.SyscallError, no bytes as io.EOF.
//
// The callbacks are bound once, as method values, and pass their buffer,
// count and error through the struct: a closure per call would allocate
// on every call. A read and a write may run at once; two reads or two
// writes may not, which neither end does: the daemon's serve loop is one
// goroutine, the client's reader is one and its writes hold a mutex.
type rawSock struct {
	rc              syscall.RawConn
	readFn, writeFn func(fd uintptr) bool

	rb   []byte
	rn   int
	rerr error

	wb   []byte
	wn   int
	werr error
}

// RawSocket returns the raw reader and writer of c, a connected stream
// socket (the client's *net.TCPConn); deadlines and Close stay c's. The
// daemon's Conn reads and writes this way itself.
func RawSocket(c syscall.Conn) (io.ReadWriter, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	s := &rawSock{}
	s.init(rc)
	return s, nil
}

func (s *rawSock) init(rc syscall.RawConn) {
	s.rc = rc
	s.readFn, s.writeFn = s.read, s.write
}

// read is RawConn.Read's callback: one read(2) into s.rb.
func (s *rawSock) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&s.rb[0])), uintptr(len(s.rb)))
		switch e {
		case 0:
			s.rn = int(n)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			s.rerr = os.NewSyscallError("read", e)
		}
		return true
	}
}

// write is RawConn.Write's callback: write(2) calls from s.wb[s.wn:] until
// all of s.wb is out, an error, or EAGAIN, after which the poller resumes
// it at the same offset.
func (s *rawSock) write(fd uintptr) bool {
	for s.wn < len(s.wb) {
		p := s.wb[s.wn:]
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)))
		switch e {
		case 0:
			if n == 0 {
				s.werr = io.ErrUnexpectedEOF // as net.Conn's Write reports it
				return true
			}
			s.wn += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			s.werr = os.NewSyscallError("write", e)
			return true
		}
	}
	return true
}

func (s *rawSock) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	s.rb, s.rn, s.rerr = b, 0, nil
	err := s.rc.Read(s.readFn)
	s.rb = nil
	switch err = cmp.Or(err, s.rerr); {
	case err != nil:
		return 0, err
	case s.rn == 0:
		return 0, io.EOF
	}
	return s.rn, nil
}

func (s *rawSock) Write(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	s.wb, s.wn, s.werr = b, 0, nil
	err := s.rc.Write(s.writeFn)
	s.wb = nil
	return s.wn, cmp.Or(err, s.werr)
}

// Listener is a TCP listener on a plain non-blocking socket the runtime
// poller waits on (os.NewFile), so the daemon links no package net, no cgo
// resolver and no libc. It sets what net.Listen sets: SO_REUSEADDR, and on
// every accepted socket TCP_NODELAY and keep-alives at 15 s.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr string
}

// Listen opens a TCP listener on addr, "host:port": the host an IP literal,
// localhost (127.0.0.1), or empty or unspecified for every address (on
// [::], dual-stack, where IPv6 is available), the port a number, 0 for a
// free one. Another host name is refused: resolving it needs the resolver.
func Listen(addr string) (*Listener, error) {
	ap, err := listenAddr(addr)
	var l *Listener
	if err == nil {
		l, err = listenOn(ap)
		if errors.Is(err, syscall.EAFNOSUPPORT) && ap.Addr().IsUnspecified() {
			l, err = listenOn(netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port()))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wire: listen %q: %w", addr, err)
	}
	return l, nil
}

// listenAddr parses Listen's addr; an unspecified host becomes [::].
func listenAddr(addr string) (netip.AddrPort, error) {
	i := strings.LastIndexByte(addr, ':') // -1: all of addr is the port
	host, port := strings.TrimSuffix(strings.TrimPrefix(addr[:max(i, 0)], "["), "]"), addr[i+1:]
	p, err := strconv.ParseUint(cmp.Or(port, "0"), 10, 16)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("port %q is not a number from 0 to 65535", port)
	}
	ip := netip.IPv6Unspecified()
	switch host {
	case "":
	case "localhost":
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	default:
		if ip, err = netip.ParseAddr(host); err != nil || ip.Zone() != "" {
			return netip.AddrPort{}, fmt.Errorf("host %q is not an IP address or localhost", host)
		}
		if ip = ip.Unmap(); ip.IsUnspecified() {
			ip = netip.IPv6Unspecified()
		}
	}
	return netip.AddrPortFrom(ip, uint16(p)), nil
}

// listenOn binds a listening, non-blocking socket on ap; an IPv6 one takes
// IPv4 peers too, as net.Listen's does.
func listenOn(ap netip.AddrPort) (*Listener, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()})
	if ap.Addr().Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	call, err := "setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	if err == nil && family == syscall.AF_INET6 {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		call, err = "bind", syscall.Bind(fd, sa)
	}
	if err == nil {
		// The kernel caps the backlog at net.core.somaxconn, the value
		// net.Listen reads and passes.
		call, err = "listen", syscall.Listen(fd, 0xffff)
	}
	if err == nil {
		call = "getsockname"
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError(call, err)
	}
	l := &Listener{f: os.NewFile(uintptr(fd), "tcp-listener"), addr: sockaddrString(sa)}
	l.rc, _ = l.f.SyscallConn() // fails only on a nil *os.File
	return l, nil
}

// sockaddrString formats sa as net.TCPAddr.String does: an IPv4-mapped
// address unmapped, an IPv6 one in brackets.
func sockaddrString(sa syscall.Sockaddr) string {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port)).String()
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(sa.Port)).String()
	}
	return ""
}

// Accept waits for the next connection, skipping a peer that reset first as
// net's does. An errno comes in an *os.SyscallError; after Close, Accept
// returns the poller's closed-file error.
func (l *Listener) Accept() (*Conn, error) {
	nfd, sa, err := -1, syscall.Sockaddr(nil), error(nil)
	if rerr := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, sa, err = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			switch err {
			case syscall.EINTR, syscall.ECONNABORTED:
				continue
			case syscall.EAGAIN:
				return false
			}
			return true
		}
	}); rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, os.NewSyscallError("accept4", err)
	}
	// net's accept sets these too, and ignores their errors too.
	for _, o := range [...][3]int{{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1}, {syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15}, {syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15}, {syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9}} {
		syscall.SetsockoptInt(nfd, o[0], o[1], o[2]) //nolint:errcheck
	}
	c := &Conn{f: os.NewFile(uintptr(nfd), "tcp"), remote: sockaddrString(sa)}
	rc, _ := c.f.SyscallConn() // fails only on a nil *os.File
	c.init(rc)
	return c, nil
}

// Addr is the bound address, "127.0.0.1:7700" or "[::]:7700".
func (l *Listener) Addr() string { return l.addr }

// Close closes the listener; a blocked Accept returns.
func (l *Listener) Close() error { return l.f.Close() }

// Conn is an accepted connection: Read and Write are the raw path, deadlines
// and Close an *os.File's, CloseRead and CloseWrite shutdown(2).
type Conn struct {
	rawSock
	f      *os.File
	remote string
}

func (c *Conn) SetReadDeadline(t time.Time) error  { return c.f.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.f.SetWriteDeadline(t) }
func (c *Conn) CloseRead() error                   { return c.shutdown(syscall.SHUT_RD) }
func (c *Conn) CloseWrite() error                  { return c.shutdown(syscall.SHUT_WR) }
func (c *Conn) Close() error                       { return c.f.Close() }

// RemoteAddr is the peer's address, as Listener.Addr formats it.
func (c *Conn) RemoteAddr() string { return c.remote }

func (c *Conn) shutdown(how int) error {
	var err error
	cerr := c.rc.Control(func(fd uintptr) { err = syscall.Shutdown(int(fd), how) })
	return cmp.Or(cerr, os.NewSyscallError("shutdown", err))
}
