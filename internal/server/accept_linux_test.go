//go:build linux

package server

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dynctrl/internal/wire"
)

// TestAcceptSurvivesDescriptorExhaustion: an accept that fails because the
// process is out of descriptors (EMFILE) does not end the accept loop. A
// re-exec'd child serves both listeners, then lowers its own RLIMIT_NOFILE
// and fills every descriptor under it; the connections this test dials
// then fail to be accepted, and each listener logs it. Once the child has
// raised the limit again, a connection dialled afterwards is served: the
// Hello is answered with a Welcome, and /healthz with 200. When each
// listener's loop returned on its first accept error, neither was.
func TestAcceptSurvivesDescriptorExhaustion(t *testing.T) {
	if os.Getenv("DYNCTRL_EMFILE_CHILD") == "1" {
		emfileChild(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAcceptSurvivesDescriptorExhaustion$")
	cmd.Env = append(os.Environ(), "DYNCTRL_EMFILE_CHILD=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		logMu sync.Mutex
		log   strings.Builder
	)
	warned := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logMu.Lock()
			log.WriteString(sc.Text() + "\n")
			logMu.Unlock()
			if strings.Contains(sc.Text(), `msg="accept failed"`) {
				select {
				case warned <- sc.Text():
				default: // one a backoff; the test reads the first of each listener
				}
			}
		}
	}()
	childLog := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return log.String()
	}
	defer func() {
		stdin.Close() // the child shuts down at EOF
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	var addrs []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if f, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
			addrs = strings.Fields(f)
			break
		}
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck
	if len(addrs) != 2 {
		t.Fatalf("the child printed no addresses; its log:\n%s", childLog())
	}
	wireAddr, metricsAddr := addrs[0], addrs[1]

	// Dialled while the child has no descriptor free: the kernel completes
	// the handshake, the child's accept fails.
	early := dialT(t, wireAddr)
	dialT(t, metricsAddr)
	for _, listener := range []string{"wire", "metrics"} {
		select {
		case line := <-warned:
			if !strings.Contains(line, "EMFILE") && !strings.Contains(line, "too many open files") {
				t.Errorf("accept warning names no EMFILE: %s", line)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no accept warning for the %s listener; the child's log:\n%s", listener, childLog())
		}
	}
	if _, err := io.WriteString(stdin, "raise\n"); err != nil {
		t.Fatal(err)
	}

	late := dialT(t, wireAddr)
	for name, nc := range map[string]net.Conn{"dialled before the limit was raised": early, "dialled after": late} {
		nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})); err != nil {
			t.Fatalf("%s: write hello: %v", name, err)
		}
		var rbuf []byte
		if ft, _, err := wire.ReadFrame(bufio.NewReader(nc), &rbuf); err != nil || ft != wire.FrameWelcome {
			t.Fatalf("wire connection %s: frame %v, %v; want a Welcome. The child's log:\n%s", name, ft, err, childLog())
		}
	}
	hc := dialT(t, metricsAddr)
	hc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := io.WriteString(hc, "GET /healthz HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if b, _ := io.ReadAll(hc); !strings.HasPrefix(string(b), "HTTP/1.1 200") {
		t.Fatalf("/healthz dialled after the limit was raised: %q; the child's log:\n%s", b, childLog())
	}
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// emfileChild is the daemon side of TestAcceptSurvivesDescriptorExhaustion:
// it serves, prints its addresses, holds every descriptor under a lowered
// RLIMIT_NOFILE until "raise" arrives on stdin, then serves until stdin
// closes.
func emfileChild(t *testing.T) {
	s, err := New(Config{
		Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0",
		Tenants: oneTenant(star4, 1, 4, 1),
		Logger:  slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var orig syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &orig); err != nil {
		t.Fatal(err)
	}
	low := orig
	low.Cur = min(orig.Cur, 256)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	var held []*os.File
	for {
		f, err := os.Open(os.DevNull)
		if err != nil {
			break // EMFILE: no descriptor is free
		}
		held = append(held, f)
	}
	os.Stdout.WriteString("listening " + s.Addr() + " " + s.MetricsAddr() + "\n") //nolint:errcheck

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() && in.Text() != "raise" {
	}
	for _, f := range held {
		f.Close()
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &orig); err != nil {
		t.Fatal(err)
	}
	for in.Scan() {
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck
}
