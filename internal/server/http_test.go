package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// readUntilClosed reads c until the server closes it or limit passes, and
// returns what arrived, how long that took and whether the limit passed
// first.
func readUntilClosed(c net.Conn, limit time.Duration) (got []byte, took time.Duration, timedOut bool) {
	start := time.Now()
	c.SetReadDeadline(start.Add(limit)) //nolint:errcheck
	got, err := io.ReadAll(c)
	var ne net.Error
	return got, time.Since(start), errors.As(err, &ne) && ne.Timeout()
}

// TestMetricsPeerIsBounded: a metrics peer holds a connection no longer
// than the head deadline, a buffer no larger than the head cap, and one of
// a fixed number of connection slots.
func TestMetricsPeerIsBounded(t *testing.T) {
	start := func(t *testing.T) string {
		return startServer(t, Config{
			MetricsAddr: "127.0.0.1:0",
			Tenants:     oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
		}).MetricsAddr()
	}
	dial := func(t *testing.T, addr string) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	t.Run("half-request", func(t *testing.T) {
		t.Parallel()
		c := dial(t, start(t))
		if _, err := io.WriteString(c, "GET /metr"); err != nil {
			t.Fatal(err)
		}
		limit := httpHeadTimeout + 3*time.Second
		got, took, timedOut := readUntilClosed(c, limit)
		if timedOut {
			t.Fatalf("a peer that sent half a request line is still connected after %v", limit)
		}
		if took > httpHeadTimeout+time.Second || len(got) != 0 {
			t.Errorf("half a request line: closed after %v with %q, want no reply within the head deadline %v",
				took, got, httpHeadTimeout)
		}
	})

	t.Run("oversized-head", func(t *testing.T) {
		t.Parallel()
		c := dial(t, start(t))
		// One byte over the cap, and no blank line: a server that buffers
		// a longer head waits for more.
		head := "GET /metricsz HTTP/1.1\r\nX-Pad: "
		head += strings.Repeat("a", httpMaxHead+1-len(head))
		if _, err := io.WriteString(c, head); err != nil {
			t.Fatal(err)
		}
		got, took, timedOut := readUntilClosed(c, httpHeadTimeout/2)
		if timedOut {
			t.Fatalf("a head over %d B was neither refused nor closed within %v", httpMaxHead, httpHeadTimeout/2)
		}
		if len(got) > 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 431 ")) {
			t.Errorf("a head over the cap answered after %v with %q, want 431 or a close", took, got)
		}
	})

	t.Run("connection-cap", func(t *testing.T) {
		t.Parallel()
		addr := start(t)
		held := make([]net.Conn, httpMaxConns)
		for i := range held {
			held[i] = dial(t, addr)
		}
		// Accepts are in dial order, so the extra connection is accepted
		// with every slot held.
		extra := dial(t, addr)
		if _, took, timedOut := readUntilClosed(extra, httpHeadTimeout/2); timedOut {
			t.Fatalf("connection %d was not refused with %d held (waited %v)", httpMaxConns+1, httpMaxConns, took)
		}
		for _, c := range held {
			c.Close()
		}
		waitUntil(t, "a slot to come free", func() bool {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	})
}

// rawGet sends req on a fresh connection and reads the reply.
func rawGet(t *testing.T, addr, req string) (*http.Response, string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	method, _, _ := strings.Cut(req, " ")
	resp, err := http.ReadResponse(bufio.NewReader(c), &http.Request{Method: method})
	if err != nil {
		t.Fatalf("%q: %v", req, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%q: body: %v", req, err)
	}
	return resp, string(body)
}

// TestMetricsHTTPCompat: the clients that read the metrics listener (Go's
// http.Get, curl, HTTP/1.0 probes, go tool pprof) get the replies they
// expect.
func TestMetricsHTTPCompat(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants: []TenantConfig{
			oneTenant(tree.Shape{Kind: "balanced", Nodes: 8}, 3, 500, 50)[0],
			{Name: "team-a", Topology: tree.Shape{Kind: "star", Nodes: 4}, M: 10, W: 1},
		},
		Pprof: true,
	})
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(controller.Request{Node: 1, Kind: tree.None}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitUntil(t, "the third trace", func() bool { return s.Tenants()[0].Trace.Recorded >= 3 })
	base := "http://" + s.MetricsAddr()
	get := func(path string, status int) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(base + path) // keep-alive, Accept-Encoding: gzip
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != status {
			t.Fatalf("GET %s: status %d (want %d), err %v", path, resp.StatusCode, status, err)
		}
		if resp.ContentLength != int64(len(body)) || !resp.Close {
			t.Errorf("GET %s: Content-Length %d for %d B, Connection: close %v", path, resp.ContentLength, len(body), resp.Close)
		}
		return resp, string(body)
	}

	if _, body := get("/metricsz", 200); !strings.Contains(body, "dynctrld_tenants 2\n") {
		t.Errorf("/metricsz:\n%s", body)
	}
	// Scrapes at once, within the connection cap.
	var wg sync.WaitGroup
	for range httpMaxConns / 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/metricsz")
			if err != nil {
				t.Errorf("concurrent GET /metricsz: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || !bytes.Contains(body, []byte("dynctrld_tenants 2\n")) {
				t.Errorf("concurrent GET /metricsz: status %d, err %v, %d B", resp.StatusCode, err, len(body))
			}
		}()
	}
	wg.Wait()
	if _, body := rawGet(t, s.MetricsAddr(), "GET /healthz HTTP/1.0\r\n\r\n"); body != "ok\n" {
		t.Errorf("HTTP/1.0 /healthz: %q", body)
	}
	if resp, body := rawGet(t, s.MetricsAddr(), "GET /healthz\r\n\r\n"); resp.StatusCode != 400 {
		t.Errorf("request line without a version: %d %q, want 400", resp.StatusCode, body)
	}
	if resp, body := rawGet(t, s.MetricsAddr(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); resp.StatusCode != 200 ||
		resp.Header.Get("Content-Length") != "3" || body != "" {
		t.Errorf("HEAD /healthz: %d, Content-Length %q, body %q", resp.StatusCode, resp.Header.Get("Content-Length"), body)
	}
	if resp, body := rawGet(t, s.MetricsAddr(), "POST /metricsz HTTP/1.1\r\nContent-Length: 3\r\n\r\nx=1"); resp.StatusCode != 405 ||
		resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /metricsz: %d %q, Allow %q, want 405 allowing GET, HEAD", resp.StatusCode, body, resp.Header.Get("Allow"))
	}
	get("/nope", 404)
	get("/debug/pprof/symbol", 404)

	if _, body := get("/tracez?n=2&tenant=default", 200); !strings.Contains(body, `== tenant "default" ==`) ||
		!strings.Contains(body, "slowest 2 batches:") || strings.Contains(body, "team-a") {
		t.Errorf("/tracez?n=2&tenant=default:\n%s", body)
	}
	if _, body := get("/tracez?tenant=team%2Da", 200); !strings.Contains(body, `== tenant "team-a" ==`) ||
		strings.Contains(body, `"default"`) {
		t.Errorf("/tracez?tenant=team%%2Da:\n%s", body)
	}

	if _, body := get("/debug/pprof/profile?seconds=1", 200); !strings.HasPrefix(body, "\x1f\x8b") {
		t.Errorf("CPU profile is not gzip: % x", body[:min(len(body), 8)])
	}
	if resp, body := get("/debug/pprof/heap?debug=1", 200); !strings.HasPrefix(body, "heap profile:") ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("heap?debug=1 (%s):\n%.200s", resp.Header.Get("Content-Type"), body)
	}
	if _, body := get("/debug/pprof/cmdline", 200); body != strings.Join(os.Args, "\x00") {
		t.Errorf("cmdline %q, want %q", body, os.Args)
	}
	_, index := get("/debug/pprof/", 200)
	for _, want := range []string{"\nheap\t", "\ngoroutine\t", "\ncmdline\n", "\nprofile?seconds=\n", "\ntrace?seconds=\n"} {
		if !strings.Contains(index, want) {
			t.Errorf("pprof index lacks %q:\n%s", want, index)
		}
	}
}

// TestProfileSecondsAreCapped: a CPU profile or trace asked for longer than
// httpMaxProfile is refused at once with 400, so it never holds the
// process-wide profiler or a connection slot for the time it named.
func TestProfileSecondsAreCapped(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
		Pprof:       true,
	})
	cl := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{
		"/debug/pprof/profile?seconds=3600",
		"/debug/pprof/trace?seconds=3600",
		"/debug/pprof/profile?seconds=60.5",
		"/debug/pprof/profile?seconds=Inf",
	} {
		resp, err := cl.Get("http://" + s.MetricsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestShutdownEndsMetricsConnections: like http.Server.Close, Shutdown
// closes every metrics connection and ends a CPU profile in progress rather
// than waiting out its seconds.
func TestShutdownEndsMetricsConnections(t *testing.T) {
	s := startServer(t, Config{
		MetricsAddr: "127.0.0.1:0",
		Tenants:     oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 0, 10, 1),
		Pprof:       true,
	})
	idle, err := net.Dial("tcp", s.MetricsAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := http.Get("http://" + s.MetricsAddr() + "/debug/pprof/profile?seconds=60"); err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, "two metrics connections", func() bool {
		s.httpd.mu.Lock()
		defer s.httpd.mu.Unlock()
		return len(s.httpd.conns) == 2
	})
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Shutdown and the profile request took %v", took)
	}
	if _, _, timedOut := readUntilClosed(idle, time.Second); timedOut {
		t.Error("an idle metrics connection outlived Shutdown")
	}
}
