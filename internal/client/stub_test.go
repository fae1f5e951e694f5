package client_test

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/wire"
)

// answerFunc encodes the reply to one Submit frame onto out.
type answerFunc func(out []byte, id uint64, reqs []wire.Req) []byte

// grantAll answers every request granted, serials counting from 1. It
// allocates nothing once out has grown.
func grantAll() answerFunc {
	var serial int64
	return func(out []byte, id uint64, reqs []wire.Req) []byte {
		out, e := wire.GrowResults(out, id, len(reqs))
		for i := range reqs {
			serial++
			e.Set(i, wire.Result{Outcome: uint8(controller.Granted), Serial: serial})
		}
		return out
	}
}

// startStub serves the wire protocol on a loopback listener with nothing
// behind it: the handshake, then answer for every Submit frame. The
// listener, its connections and their goroutines end with the test.
func startStub(t testing.TB, answer answerFunc) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveStub(nc, answer)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

func serveStub(nc net.Conn, answer answerFunc) {
	br := bufio.NewReaderSize(nc, 64<<10)
	var rbuf, out []byte
	ft, p, err := wire.ReadFrame(br, &rbuf)
	if err != nil || ft != wire.FrameHello {
		return
	}
	h, err := wire.DecodeHello(p)
	if err != nil {
		return
	}
	if _, err := nc.Write(wire.AppendWelcome(nil, wire.Welcome{Version: wire.Version, Tenant: h.Tenant, M: 1 << 40, W: 1 << 39})); err != nil {
		return
	}
	var reqs []wire.Req
	for {
		ft, p, err := wire.ReadFrame(br, &rbuf)
		if err != nil || ft != wire.FrameSubmit {
			return
		}
		var id uint64
		reqs, id, err = wire.AppendDecodeSubmit(reqs[:0], p)
		if err != nil {
			return
		}
		out = answer(out[:0], id, reqs)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

func stubRun(n int) []controller.Request {
	reqs := make([]controller.Request, n)
	for i := range reqs {
		reqs[i] = controller.Request{Node: 1}
	}
	return reqs
}

// A round trip reads its Results frame through the connection's buffered
// reader and decodes it straight into the caller's slice: the only
// allocations left are the call's pendingCall and its channel.
func TestClientRoundTripAllocs(t *testing.T) {
	cl, err := client.Dial(startStub(t, grantAll()), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	reqs := stubRun(128)
	out := make([]controller.BatchResult, 0, len(reqs))
	run := func() {
		res, err := cl.SubmitMany(reqs, out[:0])
		if err != nil || len(res) != len(reqs) || res[0].Grant.Outcome != controller.Granted {
			t.Fatalf("SubmitMany: %d results, %v", len(res), err)
		}
	}
	for range 10 {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Fatalf("%v allocations a 128-request round trip, want at most 2", n)
	}
}

func BenchmarkClientRoundTrip(b *testing.B) {
	cl, err := client.Dial(startStub(b, grantAll()), client.Options{})
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	reqs := stubRun(128)
	out := make([]controller.BatchResult, 0, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := cl.SubmitMany(reqs, out[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}

// A Results frame the client cannot match to what it sent is
// connection-fatal: the call fails and so does the connection's next one.
func TestMismatchedResultsFailClosed(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		answer     answerFunc
	}{
		{"unknown-id", "results for unknown id", func(out []byte, id uint64, reqs []wire.Req) []byte {
			return grantAll()(out, id+100, reqs)
		}},
		{"short-count", "results for 4 requests", func(out []byte, id uint64, reqs []wire.Req) []byte {
			return grantAll()(out, id, reqs[1:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := client.Dial(startStub(t, tc.answer), client.Options{})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cl.Close()
			if _, err := cl.SubmitMany(stubRun(4), nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SubmitMany: err %v, want one saying %q", err, tc.want)
			}
			if _, err := cl.SubmitMany(stubRun(4), nil); err == nil {
				t.Fatal("the connection served a call after a mismatched Results frame")
			}
		})
	}
}

// The write deadline stays armed between frames, and every write re-arms
// it first: a connection idle for longer than WriteTimeout still writes.
func TestWriteDeadlineRearmedPerFrame(t *testing.T) {
	const wt = 20 * time.Millisecond
	cl, err := client.Dial(startStub(t, grantAll()), client.Options{WriteTimeout: wt})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for i := range 3 {
		if _, err := cl.SubmitMany(stubRun(8), nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		time.Sleep(3 * wt)
	}
}
