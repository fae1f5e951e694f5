package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/persist"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
)

// TestRejectWaveRacesHandshakes: one connection drives a tiny contract into
// its reject wave while a crowd of others complete handshakes against the
// same tenant and sit bound and idle. The wave is the deciding connection's
// news only; the crowd learns of it from its own replies, if it sends
// anything. Two earlier designs failed here: one pushed the wave by scanning
// every live connection's tenant binding under the server lock while
// handshakes wrote that field with no lock (-race), and the per-tenant
// connection set that replaced it once pushed a wave frame ahead of a
// Welcome.
func TestRejectWaveRacesHandshakes(t *testing.T) {
	spec := tree.Shape{Kind: "star", Nodes: 4}
	s := startServer(t, Config{Tenants: oneTenant(spec, 1, 4, 1)})
	tr, _ := tree.New()
	if err := tree.Build(tr, spec, 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bound atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep binding fresh connections (and keep them bound, idle,
			// while the wave fires) until the driver is done.
			var held []*client.Client
			defer func() {
				for _, cl := range held {
					cl.Close()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cl, err := client.Dial(s.Addr(), client.Options{})
				if err != nil {
					t.Errorf("crowd dial: %v", err)
					return
				}
				held = append(held, cl)
				bound.Add(1)
				if len(held) > 8 {
					held[0].Close()
					held = held[1:]
				}
			}
		}()
	}

	driver, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("driver dial: %v", err)
	}
	defer driver.Close()
	for bound.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		g, err := driver.Submit(controller.Request{Node: tr.Root(), Kind: tree.None})
		if err != nil {
			t.Fatalf("driver submit %d: %v", i, err)
		}
		rejected = g.Outcome == controller.Rejected
	}
	close(stop)
	wg.Wait()
	if !rejected {
		t.Fatal("contract M=4 never rejected")
	}
	v := s.Tenants()[0]
	if v.CtlRejects == 0 {
		t.Fatal("reject wave never fired")
	}
	if len(v.Violations) != 0 {
		t.Fatalf("violations: %v", v.Violations)
	}
}

// waveOnBound is a slog handler that runs fire on the handshake's
// "connection bound" event, i.e. between the connection's binding and its
// Welcome.
type waveOnBound struct{ fire func() }

func (waveOnBound) Enabled(context.Context, slog.Level) bool { return true }
func (h waveOnBound) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "connection bound" {
		h.fire()
	}
	return nil
}
func (h waveOnBound) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h waveOnBound) WithGroup(string) slog.Handler      { return h }

// star4 is the tenant the reject-wave tests drive: a star of four nodes
// whose root every request is made at.
var star4 = tree.Shape{Kind: "star", Nodes: 4}

func star4Root(t *testing.T) tree.NodeID {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, star4, 1); err != nil {
		t.Fatal(err)
	}
	return tr.Root()
}

// submitUntilRejected submits events at root until one is rejected.
func submitUntilRejected(t *testing.T, cl *client.Client, root tree.NodeID) {
	t.Helper()
	for i := 0; i < 64; i++ {
		g, err := cl.Submit(controller.Request{Node: root, Kind: tree.None})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if g.Outcome == controller.Rejected {
			return
		}
	}
	t.Fatal("the contract never rejected")
}

// TestRejectWaveWaitsForWelcome: a client whose handshake the reject wave is
// decided in the middle of (between its binding and its Welcome) handshakes
// cleanly and hears the wave ahead of the answer to its first Submit. The
// wave is decided from the handshake's own log event and given time to
// finish. When the deciding connection pushed the wave to the others, a wave
// frame once overtook a Welcome and the client failed its handshake on
// "unexpected reject-wave frame" (TestRejectWaveRacesHandshakes met that
// interleaving once in 40 runs).
func TestRejectWaveWaitsForWelcome(t *testing.T) {
	root := star4Root(t)
	// s is published to the deciding goroutine through started, closed once
	// startServer has returned: the handshake's bytes on the socket are no
	// ordering the race detector can see.
	var s *Server
	started := make(chan struct{})
	var once sync.Once
	decided := make(chan struct{})
	logger := slog.New(waveOnBound{fire: func() {
		once.Do(func() {
			go func() {
				defer close(decided)
				<-started
				reqs := make([]controller.Request, 8)
				for i := range reqs {
					reqs[i] = controller.Request{Node: root, Kind: tree.None}
				}
				s.tenants[wire.DefaultTenant].submit(reqs, nil)
			}()
			time.Sleep(50 * time.Millisecond)
		})
	}})
	s = startServer(t, Config{Tenants: oneTenant(star4, 1, 4, 1), Logger: logger})
	close(started)
	cl, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial while the wave is decided: %v", err)
	}
	defer cl.Close()
	<-decided
	if s.Tenants()[0].CtlRejects == 0 {
		t.Fatal("eight requests against M=4 decided no reject wave")
	}
	g, err := cl.Submit(controller.Request{Node: root, Kind: tree.None})
	if err != nil {
		t.Fatalf("submit after the wave: %v", err)
	}
	if g.Outcome != controller.Rejected {
		t.Fatalf("outcome %v after the wave, want rejected", g.Outcome)
	}
	if !cl.RejectWaveSeen() {
		t.Fatal("the first Results after the wave came without the wave ahead of it")
	}
}

// TestRejectWaveDoesNotWaitForStalledReader: a peer that completes its
// handshake and then stops reading holds up no other connection. When the
// deciding connection pushed the wave to every bound peer, it blocked in
// the write to this one and its own next Submit went unanswered.
func TestRejectWaveDoesNotWaitForStalledReader(t *testing.T) {
	root := star4Root(t)
	s := startServer(t, Config{Tenants: oneTenant(star4, 1, 4, 1)})

	peer, srvSide := net.Pipe()
	defer peer.Close()
	if !s.adopt(srvSide) {
		t.Fatal("adopt refused on a live server")
	}
	if _, err := peer.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	var rbuf []byte
	if ft, _, err := wire.ReadFrame(bufio.NewReader(peer), &rbuf); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %v err %v, want welcome", ft, err)
	}
	// peer reads nothing from here on; net.Pipe has no buffer, so any write
	// to it blocks.

	driver, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer driver.Close()
	submitUntilRejected(t, driver, root)
	done := make(chan error, 1)
	go func() {
		_, err := driver.Submit(controller.Request{Node: root, Kind: tree.None})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after the wave: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a stalled reader held the deciding connection's next Submit for 2 s")
	}
}

// TestRejectWaveReachesLateClient: a client dialed after the wave hears it,
// with the right grant total, as soon as its first Submit returns. When the
// wave was pushed once to the connections bound at the time, a later one
// never heard it.
func TestRejectWaveReachesLateClient(t *testing.T) {
	root := star4Root(t)
	s := startServer(t, Config{Tenants: oneTenant(star4, 1, 4, 1)})
	driver, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer driver.Close()
	submitUntilRejected(t, driver, root)

	late, err := client.Dial(s.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("late dial: %v", err)
	}
	defer late.Close()
	if _, err := late.Submit(controller.Request{Node: root, Kind: tree.None}); err != nil {
		t.Fatalf("late submit: %v", err)
	}
	if !late.RejectWaveSeen() {
		t.Fatal("a client dialed after the wave never heard it")
	}
	v := s.Tenants()[0]
	if got := late.RejectWaveGranted(); got != v.CtlGrants || got < v.M-v.W || got > v.M {
		t.Fatalf("late client heard %d grants, want the tenant's %d within [M-W=%d, M=%d]",
			got, v.CtlGrants, v.M-v.W, v.M)
	}
}

// TestRejectWavePrecedesFirstReject: on a raw connection the first Results
// frame that carries a reject comes behind exactly one RejectWave frame, on
// the connection whose run decided the wave and on one bound before it that
// asks afterwards. The deciding connection used to be told its verdicts
// first and the wave after them.
func TestRejectWavePrecedesFirstReject(t *testing.T) {
	root := star4Root(t)
	s := startServer(t, Config{Tenants: oneTenant(star4, 1, 4, 1)})
	deciding, bystander := rawBind(t, s.Addr()), rawBind(t, s.Addr())
	for _, c := range []*rawConn{deciding, bystander} {
		c.firstRejectBehindWave(t, root)
	}
}

// rawConn is a handshaken wire connection read frame by frame.
type rawConn struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte
}

func rawBind(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{nc: nc, br: bufio.NewReader(nc)}
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	if ft, _, err := wire.ReadFrame(rc.br, &rc.rbuf); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %v err %v, want welcome", ft, err)
	}
	return rc
}

// firstRejectBehindWave submits one event at root a frame until the answer
// is a reject, fails unless exactly one RejectWave frame came before it, and
// returns the grant total that frame announced.
func (rc *rawConn) firstRejectBehindWave(t *testing.T, root tree.NodeID) int64 {
	t.Helper()
	waves := 0
	var announced int64
	for id := uint64(1); id <= 64; id++ {
		if _, err := rc.nc.Write(wire.AppendSubmit(nil, id, []wire.Req{{Node: root, Kind: tree.None}})); err != nil {
			t.Fatalf("write submit %d: %v", id, err)
		}
		for {
			ft, p, err := wire.ReadFrame(rc.br, &rc.rbuf)
			if err != nil {
				t.Fatalf("read answer to %d: %v", id, err)
			}
			if ft == wire.FrameRejectWave {
				rw, err := wire.DecodeRejectWave(p)
				if err != nil {
					t.Fatalf("reject wave ahead of the answer to %d: %v", id, err)
				}
				waves++
				announced = rw.Granted
				continue
			}
			if ft != wire.FrameResults {
				t.Fatalf("answer to %d: %v frame", id, ft)
			}
			_, e, err := wire.ViewResults(p)
			if err != nil || e.Len() != 1 {
				t.Fatalf("results for %d: %d entries, err %v", id, e.Len(), err)
			}
			if e.At(0).Outcome == uint8(controller.Rejected) {
				if waves != 1 {
					t.Fatalf("first reject (id %d) came behind %d RejectWave frames, want 1", id, waves)
				}
				return announced
			}
			break
		}
	}
	t.Fatal("the contract never rejected")
	return 0
}

// countEvent is a slog handler that counts the records logged with one
// message.
type countEvent struct {
	msg string
	n   *atomic.Int64
}

func (countEvent) Enabled(context.Context, slog.Level) bool { return true }
func (h countEvent) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.n.Add(1)
	}
	return nil
}
func (h countEvent) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h countEvent) WithGroup(string) slog.Handler      { return h }

// TestRejectWaveSurvivesRestart: a WAL tenant driven through its reject
// wave and restarted gracefully over the same directory still shows the
// wave before any request, because the wave is read off the recovered
// controller: /metricsz reports it with the controller's grant total, and a
// fresh connection's first reject comes behind a RejectWave frame that
// carries that total. The wave is logged once for the tenant, not again by
// the second incarnation, and neither incarnation's log holds a wave
// marker. When the tenant kept the wave in a field of its own, the
// restarted gauges read 0 beside a nonzero ctl_rejects_total.
func TestRejectWaveSurvivesRestart(t *testing.T) {
	root := star4Root(t)
	var logged atomic.Int64
	cfg := Config{
		Tenants:  oneTenant(star4, 1, 20, 5),
		WALDir:   t.TempDir(),
		Paranoid: true,
		Logger:   slog.New(countEvent{msg: "reject wave", n: &logged}),
	}
	shutdown := func(s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}

	s1 := startServer(t, cfg)
	announced := rawBind(t, s1.Addr()).firstRejectBehindWave(t, root)
	if v := s1.Tenants()[0]; announced != v.CtlGrants || announced < v.M-v.W || announced > v.M {
		t.Fatalf("the wave announced %d grants, the controller holds %d, want it within [M-W=%d, M=%d]",
			announced, v.CtlGrants, v.M-v.W, v.M)
	}
	shutdown(s1)

	s2 := startServer(t, cfg)
	var buf bytes.Buffer
	s2.WriteMetrics(&buf)
	doc := buf.String()
	const l = `{tenant="default"}`
	grants := metricSample(t, doc, "dynctrld_tenant_ctl_grants_total"+l)
	if metricSample(t, doc, "dynctrld_tenant_ctl_rejects_total"+l) == 0 {
		t.Fatal("the restarted controller has no rejects: the wave was not recovered")
	}
	for series, want := range map[string]int{
		"dynctrld_reject_wave":                          1,
		"dynctrld_tenant_reject_wave" + l:               1,
		"dynctrld_tenant_reject_wave_granted" + l:       grants,
		"dynctrld_tenant_wal_recovered_effects" + l:     0,
		"dynctrld_tenant_ctl_grants_total" + l:          int(announced),
		"dynctrld_tenant_read_batch_requests_total" + l: 0,
	} {
		if got := metricSample(t, doc, series); got != want {
			t.Errorf("after a graceful restart, before any request: %s = %d, want %d", series, got, want)
		}
	}
	if got := rawBind(t, s2.Addr()).firstRejectBehindWave(t, root); got != int64(grants) {
		t.Errorf("the restarted tenant's wave announced %d grants, its controller holds %d", got, grants)
	}
	shutdown(s2)
	if n := logged.Load(); n != 1 {
		t.Errorf("%d reject wave events over two incarnations, want 1", n)
	}

	history, err := persist.ReadHistory(filepath.Join(cfg.WALDir, wire.DefaultTenant))
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("%d incarnations in the log, want 2", len(history))
	}
	for _, inc := range history {
		for _, r := range inc.Records {
			if r.Type == persist.RecWave {
				t.Fatalf("incarnation %d logged a wave marker at index %d", inc.Incarnation, r.Index)
			}
		}
	}
}

// brokenWriteConn is a net.Conn whose Write starts failing once armed.
type brokenWriteConn struct {
	net.Conn
	broken atomic.Bool
}

var errBrokenWrite = errors.New("injected write failure")

func (c *brokenWriteConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errBrokenWrite
	}
	return c.Conn.Write(p)
}

// TestResultsWriteFailureEndsServeLoop: once a Results frame cannot be
// written the peer can no longer be answered, so the serve loop must end
// there — not go on to read, execute and grant permits for it. Before the
// single send helper the write error was discarded and the second batch
// below reached the controller.
func TestResultsWriteFailureEndsServeLoop(t *testing.T) {
	spec := tree.Shape{Kind: "star", Nodes: 4}
	s := startServer(t, Config{Tenants: oneTenant(spec, 1, 100, 10)})
	tr, _ := tree.New()
	if err := tree.Build(tr, spec, 1); err != nil {
		t.Fatal(err)
	}

	peer, srvSide := net.Pipe()
	defer peer.Close()
	bc := &brokenWriteConn{Conn: srvSide}
	if !s.adopt(bc) {
		t.Fatal("adopt refused on a live server")
	}

	// Handshake over the healthy pipe.
	if _, err := peer.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version})); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	br := bufio.NewReader(peer)
	var rbuf []byte
	if ft, _, err := wire.ReadFrame(br, &rbuf); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %v err %v, want welcome", ft, err)
	}
	waitLifecycle(t, s, "bind", func(open, _, _ int64) bool { return open == 1 })

	// From here on the server cannot write. net.Pipe writes are
	// synchronous, so each Submit frame below is its own read batch.
	bc.broken.Store(true)
	reqs := []wire.Req{{Node: tr.Root(), Kind: tree.None}}
	if _, err := peer.Write(wire.AppendSubmit(nil, 1, reqs)); err != nil {
		t.Fatalf("write submit 1: %v", err)
	}
	// The second frame is either never read (the serve goroutine closed
	// the pipe) or read by a loop that should no longer be running.
	peer.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	peer.Write(wire.AppendSubmit(nil, 2, reqs))            //nolint:errcheck

	waitLifecycle(t, s, "serve loop exit", func(open, _, _ int64) bool { return open == 0 })
	v := s.Tenants()[0]
	if v.Runs != 1 || v.RunRequests != 1 {
		t.Fatalf("the tenant executed %d runs / %d requests, want exactly the one batch read before the write failed",
			v.Runs, v.RunRequests)
	}
	// Accounting order is tallies-before-write: the executed batch is
	// counted even though its answer was lost.
	if v.Ops != 1 || v.Grants != 1 {
		t.Fatalf("accounting ops=%d grants=%d, want 1/1", v.Ops, v.Grants)
	}
}

func scrapeMoves(t *testing.T, s *Server) int64 {
	t.Helper()
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	return int64(metricSample(t, buf.String(), `dynctrld_tenant_moves_total{tenant="default"}`))
}

// TestReceiptFeedsTraces: with a WAL and tracing on, every batch trace is
// built from its own run's receipt — it has controller time and WAL time of
// its own, its stages fit inside its total, and the move deltas of all
// traces partition exactly what /metricsz counted.
func TestReceiptFeedsTraces(t *testing.T) {
	spec := tree.Shape{Kind: "balanced", Nodes: 32}
	s := startServer(t, Config{
		// The contract is smaller than the load, so the run crosses
		// waste-halving iterations and the exhaustion wave on top of the
		// package descents every slow-path grant costs.
		Tenants: oneTenant(spec, 5, 300, 30),
		WALDir:  t.TempDir(), TraceRing: 4096,
	})
	tr, _ := tree.New()
	if err := tree.Build(tr, spec, 5); err != nil {
		t.Fatal(err)
	}
	nodes := make([]tree.NodeID, tr.Size())
	for id, p := range tr.Intervals() {
		if p[0] > 0 {
			nodes[p[0]-1] = tree.NodeID(id)
		}
	}
	before := scrapeMoves(t, s)

	const conns, perConn, chunk = 4, 40, 8
	cl, err := client.Dial(s.Addr(), client.Options{Conns: conns})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]controller.Request, chunk)
			for i := 0; i < perConn; i++ {
				for j := range reqs {
					reqs[j] = controller.Request{Node: nodes[(g*131+i*17+j)%len(nodes)], Kind: tree.None}
				}
				if _, err := cl.SubmitMany(reqs, nil); err != nil {
					t.Errorf("SubmitMany: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cl.Close()
	// A batch's trace is recorded after its reply is written; once every
	// serve loop has exited they are all in.
	waitLifecycle(t, s, "connections drained", func(open, _, _ int64) bool { return open == 0 })

	tn := s.tenants[wire.DefaultTenant]
	traces := tn.tracer.Recent(4096)
	if got, want := uint64(len(traces)), tn.tracer.Recorded(); got != want || got == 0 {
		t.Fatalf("ring holds %d traces of %d recorded", got, want)
	}
	var moves, reqs int64
	for _, bt := range traces {
		exec, wal, queue := bt.Stages[obs.StageExecute], bt.Stages[obs.StageWAL], bt.Stages[obs.StageQueue]
		if exec <= 0 {
			t.Errorf("trace %d: execute %v, want > 0", bt.ID, exec)
		}
		if wal <= 0 {
			t.Errorf("trace %d: wal %v, want > 0", bt.ID, wal)
		}
		if queue+exec+wal > bt.Total {
			t.Errorf("trace %d: queue %v + execute %v + wal %v exceeds total %v", bt.ID, queue, exec, wal, bt.Total)
		}
		moves += bt.Moves
		reqs += int64(bt.Requests)
	}
	if want := int64(conns * perConn * chunk); reqs != want {
		t.Errorf("traces carry %d requests, want %d", reqs, want)
	}
	if delta := scrapeMoves(t, s) - before; moves != delta || delta == 0 {
		t.Errorf("traces sum to %d moves, /metricsz counted %d", moves, delta)
	}
}

// TestStoreMax: the read-batch high-water mark ends at the largest run,
// whatever the order and however many connections run at once, and the two
// read-batch counters beside it at every run and every request. A read batch
// is one run, so /metricsz renders the read_batch families from the run
// tallies, plain integers that submit raises under tenant.mu.
func TestStoreMax(t *testing.T) {
	check := func(t *testing.T, runs [][]int, wantMax int) {
		t.Helper()
		s, err := New(Config{Tenants: oneTenant(tree.Shape{Kind: "star", Nodes: 4}, 1, 1<<30, 1<<29)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tn := s.tenants[wire.DefaultTenant]
		batches, total := 0, 0
		var wg sync.WaitGroup
		for _, sizes := range runs { // one goroutine a connection
			for _, n := range sizes {
				batches, total = batches+1, total+n
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out []controller.BatchResult
				for _, n := range sizes {
					reqs := make([]controller.Request, n)
					for i := range reqs {
						reqs[i] = controller.Request{Node: tn.tr.Root(), Kind: tree.None}
					}
					out, _ = tn.submit(reqs, out[:0])
				}
			}()
		}
		wg.Wait()
		var buf bytes.Buffer
		s.WriteMetrics(&buf)
		for family, want := range map[string]int{
			"dynctrld_tenant_read_batch_max":            wantMax,
			"dynctrld_tenant_read_batches_total":        batches,
			"dynctrld_tenant_read_batch_requests_total": total,
		} {
			if got := metricSample(t, buf.String(), family+`{tenant="default"}`); got != want {
				t.Errorf("%s = %d after runs of %v, want %d", family, got, runs, want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		runs []int
		want int
	}{
		{"ascending", []int{1, 2, 3, 64}, 64},
		{"descending", []int{64, 3, 2, 1}, 64},
		{"equal", []int{7, 7, 7}, 7},
		{"below the zero start", []int{0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, [][]int{tc.runs}, tc.want) })
	}
	t.Run("concurrent writers", func(t *testing.T) {
		// Writer w runs w+1, w+1+writers, ... requests: the sizes interleave,
		// so every writer keeps finding a mark another one just moved.
		const writers, each = 8, 40
		runs := make([][]int, writers)
		for w := range runs {
			for i := 0; i < each; i++ {
				runs[w] = append(runs[w], w+1+i*writers)
			}
		}
		check(t, runs, writers*each)
	})
}
