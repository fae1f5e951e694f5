package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/url"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynctrl/internal/wire"
)

// The metrics listener's limits. They are constants, not options: the
// listener answers scrapers and operators on a few read-only routes.
const (
	// httpMaxHead caps a request's line and headers. A longer head is
	// answered 431 once this many bytes have arrived; it is never buffered
	// whole.
	httpMaxHead = 8 << 10
	// httpHeadTimeout bounds the wait for the whole head, from the accept.
	httpHeadTimeout = 5 * time.Second
	// httpWriteTimeout bounds the write of a reply once its body is rendered.
	httpWriteTimeout = 10 * time.Second
	// httpLinger bounds the read of what a peer still sends after its reply,
	// before the connection closes (see writeReply).
	httpLinger = time.Second
	// httpMaxConns caps the metrics connections open at once; one more is
	// closed as it is accepted.
	httpMaxConns = 16
	// httpMaxProfile caps a CPU profile's or a trace's seconds: a longer
	// one is answered 400, so no request holds the process-wide profiler,
	// or one of the connections above, longer than this.
	httpMaxProfile = 60 * time.Second
)

const (
	textPlain   = "text/plain; charset=utf-8"
	octetStream = "application/octet-stream"
)

// reply is one rendered response.
type reply struct {
	status int
	ctype  string
	body   []byte
}

func textReply(status int, body string) reply {
	return reply{status, textPlain, []byte(body)}
}

// httpResponder is the metrics listener: the HTTP/1.x its routes need and
// nothing more. It answers GET and HEAD, one request per connection, with
// Content-Length and Connection: close, and holds every connection to the
// limits above.
type httpResponder struct {
	ln    *wire.Listener
	route func(path string, q url.Values, done <-chan struct{}) reply
	slots chan struct{} // a semaphore of httpMaxConns
	done  chan struct{} // closed by close: ends a profile in progress

	mu     sync.Mutex
	conns  map[conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newHTTPResponder serves route on ln until close.
func newHTTPResponder(ln *wire.Listener, route func(string, url.Values, <-chan struct{}) reply, logger *slog.Logger) *httpResponder {
	h := &httpResponder{
		ln:    ln,
		route: route,
		slots: make(chan struct{}, httpMaxConns),
		done:  make(chan struct{}),
		conns: map[conn]struct{}{},
	}
	h.wg.Add(1)
	go h.accept(logger)
	return h
}

func (h *httpResponder) accept(logger *slog.Logger) {
	defer h.wg.Done()
	acceptEach(h.ln, logger, "metrics", &h.mu, &h.closed, func(nc conn) bool {
		select {
		case h.slots <- struct{}{}:
		default:
			nc.Close() // at the cap
			return true
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return false
		}
		h.conns[nc] = struct{}{}
		h.wg.Add(1)
		go h.serve(nc)
		return true
	})
}

// close stops the listener as http.Server.Close did: the listener and every
// open connection close, a profile in progress ends, and close returns once
// every connection's goroutine has.
func (h *httpResponder) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for nc := range h.conns {
		nc.Close()
	}
	h.mu.Unlock()
	close(h.done)
	h.ln.Close()
	h.wg.Wait()
}

// serve answers the one request of nc and closes it.
func (h *httpResponder) serve(nc conn) {
	defer func() {
		h.mu.Lock()
		delete(h.conns, nc)
		h.mu.Unlock()
		nc.Close()
		<-h.slots
		h.wg.Done()
	}()
	nc.SetReadDeadline(time.Now().Add(httpHeadTimeout)) //nolint:errcheck // a failed set fails the read
	buf := make([]byte, httpMaxHead)
	n, end := 0, -1
	for end < 0 {
		if n == len(buf) {
			writeReply(nc, textReply(431, "request head over 8 KiB\n"), false)
			return
		}
		m, err := nc.Read(buf[n:])
		if end = headEnd(buf[:n+m], n); err != nil && end < 0 {
			return // deadline, reset or EOF before the head ended: no reply
		}
		n += m
	}
	method, target, ok := requestLine(buf[:end])
	var r reply
	switch {
	case !ok:
		r = textReply(400, "malformed request line\n")
	case method != "GET" && method != "HEAD":
		r = textReply(405, "only GET and HEAD are served\n")
	default:
		if u, err := url.ParseRequestURI(target); err != nil {
			r = textReply(400, "malformed request target\n")
		} else {
			r = h.route(u.Path, u.Query(), h.done)
		}
	}
	writeReply(nc, r, method == "HEAD")
}

// writeReply sends r, without its body for a HEAD request, then half-closes
// nc and reads what the peer still sends until it closes or httpLinger
// passes: closing a socket with unread bytes resets it, and a reset can
// discard the reply before the peer has read it.
func writeReply(nc conn, r reply, head bool) {
	nc.SetWriteDeadline(time.Now().Add(httpWriteTimeout)) //nolint:errcheck // a failed set fails the write
	msg := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		r.status, statusText(r.status), r.ctype, len(r.body))
	if r.status == 405 {
		msg = append(msg, "Allow: GET, HEAD\r\n"...)
	}
	msg = append(msg, "\r\n"...)
	if !head {
		msg = append(msg, r.body...)
	}
	if _, err := nc.Write(msg); err != nil {
		return
	}
	if tc, ok := nc.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite() //nolint:errcheck // the drain below ends either way
	}
	nc.SetReadDeadline(time.Now().Add(httpLinger)) //nolint:errcheck
	io.Copy(io.Discard, nc)                        //nolint:errcheck // ends at EOF, reset or the deadline
}

// headEnd returns the length of the request head in b, through the blank
// line that ends it (CRLF or a bare LF), or -1 while it has not ended. The
// bytes before from were searched already.
func headEnd(b []byte, from int) int {
	for i := max(from-2, 0); i < len(b); i++ {
		if b[i] != '\n' {
			continue
		}
		if i+1 < len(b) && b[i+1] == '\n' {
			return i + 2
		}
		if i+2 < len(b) && b[i+1] == '\r' && b[i+2] == '\n' {
			return i + 3
		}
	}
	return -1
}

// requestLine splits the first line of head into its method and target; it
// reports false unless the line is "METHOD TARGET HTTP/1.0" or "HTTP/1.1".
// The headers are not read: no route depends on one.
func requestLine(head []byte) (method, target string, ok bool) {
	line, _, _ := strings.Cut(string(head), "\n")
	method, rest, ok1 := strings.Cut(strings.TrimSuffix(line, "\r"), " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	ok = ok1 && ok2 && method != "" && target != "" && (proto == "HTTP/1.1" || proto == "HTTP/1.0")
	return method, target, ok
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 431:
		return "Request Header Fields Too Large"
	}
	return "Internal Server Error"
}

// route answers one metrics request: /metricsz, /tracez, /healthz and, with
// Config.Pprof, /debug/pprof/.
func (s *Server) route(path string, q url.Values, done <-chan struct{}) reply {
	var b bytes.Buffer
	switch path {
	case "/metricsz":
		s.writeMetrics(&b)
		return reply{200, "text/plain; version=0.0.4; charset=utf-8", b.Bytes()}
	case "/tracez":
		n, err := strconv.Atoi(q.Get("n"))
		if err != nil || n < 1 {
			n = 16
		}
		tenant := q.Get("tenant")
		if tenant != "" && s.tenants[tenant] == nil {
			return textReply(404, s.unknownTenant(tenant)+"\n")
		}
		s.writeTraces(&b, tenant, n)
		return reply{200, textPlain, b.Bytes()}
	case "/healthz":
		return textReply(200, "ok\n")
	}
	if name, ok := strings.CutPrefix(path, "/debug/pprof/"); ok && s.cfg.Pprof {
		return profile(name, q, done)
	}
	return textReply(404, "404 page not found\n")
}

// profile answers /debug/pprof/<name> from runtime/pprof and runtime/trace:
// the index (name ""), cmdline, profile?seconds= (CPU, 30 s by default),
// trace?seconds= (1 s), both at most httpMaxProfile, and every pprof.Lookup
// profile with ?debug=. A CPU profile or trace in progress ends early when
// done closes.
func profile(name string, q url.Values, done <-chan struct{}) reply {
	var b bytes.Buffer
	switch name {
	case "":
		b.WriteString("/debug/pprof/: profile count\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&b, "%s\t%d\n", p.Name(), p.Count())
		}
		b.WriteString("cmdline\nprofile?seconds=\ntrace?seconds=\n")
		return reply{200, textPlain, b.Bytes()}
	case "cmdline":
		return textReply(200, strings.Join(os.Args, "\x00"))
	case "profile":
		d, ok := seconds(q, 30)
		if !ok {
			return textReply(400, fmt.Sprintf("seconds exceeds %g\n", httpMaxProfile.Seconds()))
		}
		if err := pprof.StartCPUProfile(&b); err != nil {
			return textReply(500, "could not enable CPU profiling: "+err.Error()+"\n")
		}
		sleep(d, done)
		pprof.StopCPUProfile()
		return reply{200, octetStream, b.Bytes()}
	case "trace":
		d, ok := seconds(q, 1)
		if !ok {
			return textReply(400, fmt.Sprintf("seconds exceeds %g\n", httpMaxProfile.Seconds()))
		}
		if err := trace.Start(&b); err != nil {
			return textReply(500, "could not enable tracing: "+err.Error()+"\n")
		}
		sleep(d, done)
		trace.Stop()
		return reply{200, octetStream, b.Bytes()}
	}
	p := pprof.Lookup(name)
	if p == nil {
		return textReply(404, "unknown profile\n")
	}
	debug, _ := strconv.Atoi(q.Get("debug"))
	if err := p.WriteTo(&b, debug); err != nil {
		return textReply(500, err.Error()+"\n")
	}
	if debug != 0 {
		return reply{200, textPlain, b.Bytes()}
	}
	return reply{200, octetStream, b.Bytes()}
}

// seconds reads the seconds parameter, def when it is absent or not
// positive. It reports false when the value exceeds httpMaxProfile.
func seconds(q url.Values, def float64) (time.Duration, bool) {
	sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
	if err != nil || !(sec > 0) {
		sec = def
	}
	if sec > httpMaxProfile.Seconds() {
		return 0, false
	}
	return time.Duration(sec * float64(time.Second)), true
}

// sleep waits d or until done closes.
func sleep(d time.Duration, done <-chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}
