//go:build linux

package wire

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// rawSock reads and writes a TCP connection's non-blocking fd with raw
// read(2) and write(2) calls, inside RawConn.Read and RawConn.Write: on
// EAGAIN the callback reports false and the goroutine parks on the runtime
// poller, deadlines and Close act as they do on the net.Conn, and errors
// come back in the net.Conn's shape. A raw syscall never enters the
// runtime's syscall state, so the runtime never hands the P to another
// thread around it, as it does around net.Conn's Read and Write when the
// peer is woken onto the same CPU before the call returns. The cost is
// that a call the kernel preempts keeps its P until it returns; at fan-in
// over two Ps (internal/server's BenchmarkFanin*, -cpu 2) that showed no
// loss.
//
// The callbacks are bound once, as method values, and pass their buffer,
// count and error through the struct: a closure per call would allocate
// on every call. A read and a write may run at once; two reads or two
// writes may not, which neither end does: the daemon's serve loop is one
// goroutine, the client's reader is one and its writes hold a mutex.
type rawSock struct {
	tc              *net.TCPConn
	rc              syscall.RawConn
	readFn, writeFn func(fd uintptr) bool

	rb   []byte
	rn   int
	rerr error

	wb   []byte
	wn   int
	werr error
}

// RawSocket returns the reader and writer both ends of the protocol use
// for nc: a rawSock for a TCP conn, nc itself for any other. Deadlines,
// CloseRead and Close stay nc's.
func RawSocket(nc net.Conn) io.ReadWriter {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return nc
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return nc
	}
	s := &rawSock{tc: tc, rc: rc}
	s.readFn, s.writeFn = s.read, s.write
	return s
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
	if err == nil {
		err = s.rerr
	}
	switch {
	case err != nil:
		return 0, s.opError("read", err)
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
	if err == nil {
		err = s.werr
	}
	if err != nil {
		return s.wn, s.opError("write", err)
	}
	return s.wn, nil
}

// opError gives err the shape net.Conn's Read and Write give theirs: a
// *net.OpError named "read" or "write". RawConn's own errors (closed,
// deadline exceeded) come as an *net.OpError named "raw-read" or
// "raw-write", which is renamed.
func (s *rawSock) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		oe.Op = op
		return oe
	}
	return &net.OpError{Op: op, Net: s.tc.LocalAddr().Network(), Source: s.tc.LocalAddr(), Addr: s.tc.RemoteAddr(), Err: err}
}
