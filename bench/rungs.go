package bench

import (
	"bufio"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/server"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// The ladder replays the workload's generated input through one module at a
// time, in this process, timing each call into the module from outside it.
// The single-goroutine rungs walk the chunks in one fixed order (chunk 0 of
// connection 0, chunk 0 of connection 1, chunk 1 of connection 0, ...), so
// over the seeded sim scheduler their counts repeat exactly.

// frameHeader is the wire frame's prefix, a 4-byte length and a 1-byte type
// (docs/PROTOCOL.md); the Decode functions take the payload after it.
const frameHeader = 5

// rungCap bounds the requests an event-only rung replays. Inputs that grow
// the tree are never capped: their cost depends on the whole growth.
const rungCap = 1 << 20

// pathCap bounds the requests the tree rung walks to the root: on the
// 8192-deep path one walk costs a tenth of a millisecond.
const pathCap = 1 << 14

// ladder is the state the rungs share: the input, the recorder, and what
// earlier rungs leave for later ones.
type ladder struct {
	in     *Input
	rec    *Recorder
	v      *Values
	chunks int // per connection, after the cap
	reqs   int // over both connections, after the cap

	results [][]wire.Result // by serial chunk order, left by the dist rung
	distNS  float64         // dist.submit_batch_ns_per_req
	pipeNS  float64         // pipeline.submit_many_ns_per_req
	Checks                  // the rungs' own failed checks
}

func newLadder(in *Input, v *Values) *ladder {
	l := &ladder{in: in, v: v, chunks: in.NumChunks()}
	if in.W.AddLeafPct == 0 {
		if most := rungCap / Conns / in.W.Chunk; l.chunks > most {
			l.chunks = most
		}
	}
	for k := 0; k < l.chunks; k++ {
		for c := 0; c < Conns; c++ {
			l.reqs += len(in.Chunk(c, k))
		}
	}
	// At most sixteen spans a chunk: the rungs' and the traced daemon run's.
	l.rec = NewRecorder(16 * l.chunks * Conns)
	return l
}

// serial calls fn for every chunk in the fixed serial order.
func (l *ladder) serial(fn func(i int, id int64, reqs []controller.Request)) {
	i := 0
	for k := 0; k < l.chunks; k++ {
		for c := 0; c < Conns; c++ {
			fn(i, ChunkID(c, k), l.in.Chunk(c, k))
			i++
		}
	}
}

// freshTree rebuilds the daemon's initial topology.
func (l *ladder) freshTree() (*tree.Tree, error) {
	tr, _ := tree.New()
	return tr, workload.BuildTopology(tr, l.in.W.Topology, topologySeed)
}

// freshDist builds the engine the daemon serves with: dist.Dynamic over the
// seeded random scheduler.
func (l *ladder) freshDist() (*dist.Dynamic, error) {
	tr, err := l.freshTree()
	if err != nil {
		return nil, err
	}
	rt, err := sim.NewRuntime("random", topologySeed)
	if err != nil {
		return nil, err
	}
	return dist.NewDynamic(tr, rt, l.in.W.M, l.in.W.W, false, nil), nil
}

// mallocs counts heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rungDist times dist.Dynamic.SubmitBatch chunk by chunk and keeps the
// verdicts for the wire rung.
func (l *ladder) rungDist() error {
	ctl, err := l.freshDist()
	if err != nil {
		return err
	}
	ctrs := ctl.Counters()
	w := l.in.W
	name := l.rec.Name("dist:dist.SubmitBatch")
	l.results = make([][]wire.Result, l.chunks*Conns)
	var out []controller.BatchResult
	granted, firstRejectAt := int64(0), int64(-1)
	m0 := mallocs()
	start := time.Now()
	l.serial(func(i int, id int64, reqs []controller.Request) {
		sp := l.rec.Begin(name, -1, id)
		out = ctl.SubmitBatch(reqs, out[:0])
		l.rec.End(sp)
		res := make([]wire.Result, len(out))
		for j, r := range out {
			if r.Err != nil {
				res[j] = wire.Result{Code: wire.CodeBadRequest}
				l.problem("dist rung: request failed: %v", r.Err)
				continue
			}
			res[j] = wire.Result{Outcome: uint8(r.Grant.Outcome), Serial: r.Grant.Serial, NewNode: r.Grant.NewNode}
			switch r.Grant.Outcome {
			case controller.Granted:
				granted++
			case controller.Rejected:
				if firstRejectAt < 0 {
					firstRejectAt = granted
				}
			}
		}
		l.results[i] = res
	})
	elapsed := time.Since(start)
	allocs := mallocs() - m0

	msgs := dist.TotalMessages(ctl.Runtime(), ctrs)
	l.distNS = float64(elapsed.Nanoseconds()) / float64(l.reqs)
	l.v.set("dist.submit_batch_ns_per_req", l.distNS, l.chunks*Conns)
	l.v.set("dist.msgs_per_req", float64(msgs)/float64(l.reqs), 0)
	changes := ctrs.Get(stats.CounterTopoChanges)
	perChange := 0.0
	if changes > 0 {
		perChange = float64(msgs) / float64(changes)
	}
	l.v.set("dist.msgs_per_change", perChange, 0)
	// One result slice per chunk is the rung's own; the rest is the engine.
	l.v.set("dist.allocs_per_req", float64(allocs-uint64(l.chunks*Conns))/float64(l.reqs), 0)
	l.v.set("dist.iterations", float64(ctl.Iterations()), 0)
	waste := int64(0)
	if firstRejectAt >= 0 {
		waste = w.M - firstRejectAt
		if waste > w.W {
			l.problem("dist rung: first reject after %d grants wastes %d permits, W = %d", firstRejectAt, waste, w.W)
		}
	}
	if granted > w.M {
		l.problem("dist rung: granted %d > M = %d", granted, w.M)
	}
	l.v.set("dist.waste_permits", float64(waste), 0)
	return nil
}

// rungController times the centralized reference engine on the same
// requests and holds its verdicts against the distributed one's.
func (l *ladder) rungController() error {
	tr, err := l.freshTree()
	if err != nil {
		return err
	}
	ctrs := stats.NewCounters()
	ctl := controller.NewDynamic(tr, l.in.W.M, l.in.W.W, controller.WithDynamicCounters(ctrs))
	name := l.rec.Name("controller:controller.Submit")
	differ := 0
	start := time.Now()
	l.serial(func(i int, id int64, reqs []controller.Request) {
		sp := l.rec.Begin(name, -1, id)
		for j, req := range reqs {
			g, err := ctl.Submit(req)
			want := l.results[i][j]
			if err != nil || uint8(g.Outcome) != want.Outcome || g.Serial != want.Serial {
				differ++
			}
		}
		l.rec.End(sp)
	})
	elapsed := time.Since(start)
	if differ > 0 {
		l.problem("controller rung: %d verdicts differ from the distributed engine's", differ)
	}
	l.v.set("controller.submit_ns_per_req", float64(elapsed.Nanoseconds())/float64(l.reqs), l.chunks*Conns)
	l.v.set("controller.moves_per_req", float64(ctrs.Get(stats.CounterMoves))/float64(l.reqs), 0)
	return nil
}

// rungWire times the four codec calls a request crosses: Submit out and in,
// Results out and in.
func (l *ladder) rungWire() {
	names := [4]int{
		l.rec.Name("wire:wire.AppendSubmit"), l.rec.Name("wire:wire.DecodeSubmit"),
		l.rec.Name("wire:wire.AppendResults"), l.rec.Name("wire:wire.DecodeResults"),
	}
	var (
		wreqs       []wire.Req
		frame, resf []byte
		sub         wire.Submit
		rs          wire.Results
		bytes       int64
		spent       [4]time.Duration
		bad         int
	)
	timed := func(n int, id int64, fn func()) {
		sp := l.rec.Begin(names[n], -1, id)
		fn()
		spent[n] += l.rec.End(sp)
	}
	m0 := mallocs()
	l.serial(func(i int, id int64, reqs []controller.Request) {
		wreqs = wreqs[:0]
		for _, r := range reqs {
			wreqs = append(wreqs, wire.Req{Node: r.Node, Kind: r.Kind, Child: r.Child})
		}
		timed(0, id, func() { frame = wire.AppendSubmit(frame[:0], uint64(id), wreqs) })
		timed(1, id, func() {
			if wire.DecodeSubmit(frame[frameHeader:], &sub) != nil {
				bad++
			}
		})
		timed(2, id, func() { resf = wire.AppendResults(resf[:0], uint64(id), l.results[i]) })
		timed(3, id, func() {
			if wire.DecodeResults(resf[frameHeader:], &rs) != nil {
				bad++
			}
		})
		if len(sub.Reqs) != len(reqs) || len(rs.Results) != len(reqs) {
			bad++
		}
		bytes += int64(len(frame) + len(resf))
	})
	allocs := mallocs() - m0
	if bad > 0 {
		l.problem("wire rung: %d frames did not round-trip", bad)
	}
	n := l.chunks * Conns
	for i, metric := range []string{"wire.encode_submit_ns_per_req", "wire.decode_submit_ns_per_req",
		"wire.encode_results_ns_per_req", "wire.decode_results_ns_per_req"} {
		l.v.set(metric, float64(spent[i].Nanoseconds())/float64(l.reqs), n)
	}
	l.v.set("wire.bytes_per_req", float64(bytes)/float64(l.reqs), 0)
	l.v.set("wire.allocs_per_req", float64(allocs)/float64(l.reqs), 0)
}

// rungTree times the two tree calls the engines lean on: ApplyAddLeaf under
// the input's AddLeaf parents on a fresh tree, and AppendPathToRoot from the
// input's nodes on the initial topology.
func (l *ladder) rungTree() error {
	tr, err := l.freshTree()
	if err != nil {
		return err
	}
	pathName, addName := l.rec.Name("tree:tree.AppendPathToRoot"), l.rec.Name("tree:tree.ApplyAddLeaf")
	var buf []tree.NodeID
	var pathT, addT time.Duration
	adds, walks, failed := 0, 0, 0
	l.serial(func(_ int, id int64, reqs []controller.Request) {
		if walks >= pathCap {
			return
		}
		walks += len(reqs)
		sp := l.rec.Begin(pathName, -1, id)
		for _, r := range reqs {
			if buf, err = tr.AppendPathToRoot(r.Node, buf[:0]); err != nil {
				failed++
			}
		}
		pathT += l.rec.End(sp)
	})
	l.serial(func(_ int, id int64, reqs []controller.Request) {
		sp := l.rec.Begin(addName, -1, id)
		for _, r := range reqs {
			if r.Kind != tree.AddLeaf {
				continue
			}
			adds++
			if _, err := tr.ApplyAddLeaf(r.Node); err != nil {
				failed++
			}
		}
		addT += l.rec.End(sp)
	})
	if failed > 0 {
		l.problem("tree rung: %d calls failed", failed)
	}
	l.v.set("tree.path_to_root_ns_per_op", float64(pathT.Nanoseconds())/float64(walks), walks)
	perAdd := 0.0
	if adds > 0 {
		perAdd = float64(addT.Nanoseconds()) / float64(adds)
	}
	l.v.set("tree.add_leaf_ns_per_op", perAdd, adds)
	return nil
}

// tracedSubmitter wraps the engine under the pipeline: it times each
// SubmitBatch and hangs the span under the SubmitMany call it serves. Each
// closed-loop connection has one call outstanding, published in its slot
// before the call; the leader finds the parent by the run's first request.
type tracedSubmitter struct {
	sub   controller.BatchSubmitter
	rec   *Recorder
	name  int
	slots [Conns]struct {
		first atomic.Pointer[controller.Request]
		span  atomic.Int64
		id    atomic.Int64
	}
}

func (t *tracedSubmitter) SubmitBatch(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	parent, id := -1, int64(-1)
	for c := range t.slots {
		if t.slots[c].first.Load() == &reqs[0] {
			parent, id = int(t.slots[c].span.Load()), t.slots[c].id.Load()
		}
	}
	sp := t.rec.Begin(t.name, parent, id)
	out = t.sub.SubmitBatch(reqs, out)
	t.rec.End(sp)
	return out
}

// pipelineConn is one goroutine's view of the pipeline: it opens the parent
// span and publishes it for the wrapped engine.
type pipelineConn struct {
	pl   *pipeline.Pipeline
	ts   *tracedSubmitter
	conn int
	name int
	next int // chunk index of the next call
}

func (p *pipelineConn) SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	id := ChunkID(p.conn, p.next)
	p.next++
	sp := p.ts.rec.Begin(p.name, -1, id)
	slot := &p.ts.slots[p.conn]
	slot.span.Store(int64(sp))
	slot.id.Store(id)
	slot.first.Store(&reqs[0])
	out, err := p.pl.SubmitMany(reqs, out)
	p.ts.rec.End(sp)
	return out, err
}

// rungPipeline drives Pipeline.SubmitMany from one goroutine per
// connection. The handoff is what SubmitMany costs beyond the engine call
// it wraps: the parent span's self time.
func (l *ladder) rungPipeline() error {
	ctl, err := l.freshDist()
	if err != nil {
		return err
	}
	ts := &tracedSubmitter{sub: ctl, rec: l.rec, name: l.rec.Name("pipeline:dist.SubmitBatch")}
	pl := pipeline.New(ts)
	defer pl.Close()
	parent := l.rec.Name("pipeline:pipeline.SubmitMany")
	var subs [Conns]manySubmitter
	for c := range subs {
		subs[c] = &pipelineConn{pl: pl, ts: ts, conn: c, name: parent}
	}
	tallies := newTallies(l.in)
	elapsed := runClosedAll(subs, l.in, 0, l.chunks, tallies, nil, "")
	total := mergeTallies(tallies)
	if total.Errors+total.NoVerdict > 0 || total.Granted > l.in.W.M {
		l.problem("pipeline rung: %d errors, %d without verdict, %d granted (M = %d)",
			total.Errors, total.NoVerdict, total.Granted, l.in.W.M)
	}
	ps := pl.Stats()
	l.pipeNS = float64(elapsed.Nanoseconds()) / float64(l.reqs)
	l.v.set("pipeline.submit_many_ns_per_req", l.pipeNS, l.chunks*Conns)
	l.v.set("pipeline.reqs_per_cycle", float64(ps.Requests)/float64(ps.Batches), int(ps.Batches))
	calls := l.rec.Totals()["pipeline:pipeline.SubmitMany"]
	l.v.set("pipeline.handoff_self_ns_per_req", float64(calls.Self)/float64(l.reqs), int(calls.Count))
	return nil
}

// rungPersist decides each chunk and appends its effects under one lock, as
// the daemon's guard does, then waits for the fsync outside it, from one
// goroutine per connection; then it recovers the directory it wrote.
func (l *ladder) rungPersist(scratch string) error {
	if !l.in.W.WAL {
		// The workload never enters this layer.
		for _, name := range []string{"persist.append_ns_per_req", "persist.wait_durable_p50_us", "persist.wait_durable_p99_us",
			"persist.reqs_per_fsync", "persist.wal_bytes_per_req", "persist.recover_ns_per_effect"} {
			l.v.set(name, 0, 0)
		}
		return nil
	}
	dir, err := os.MkdirTemp(scratch, "wal-rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The daemon's group-commit window; checkpoints are the server's job
	// and stay out of this rung.
	opts := persist.Options{CommitWindow: server.DefaultCommitWindow}
	eng, _, err := persist.Open(dir, opts)
	if err != nil {
		return err
	}
	ctl, err := l.freshDist()
	if err != nil {
		eng.Close()
		return err
	}
	submitName, appendName, waitName := l.rec.Name("persist:dist.SubmitBatch"),
		l.rec.Name("persist:persist.AppendEffects"), l.rec.Name("persist:persist.WaitDurable")
	var mu sync.Mutex
	var wg sync.WaitGroup
	var failed, appendNS atomic.Int64
	for c := 0; c < Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out []controller.BatchResult
			for k := 0; k < l.chunks; k++ {
				reqs, id := l.in.Chunk(c, k), ChunkID(c, k)
				mu.Lock()
				sp := l.rec.Begin(submitName, -1, id)
				out = ctl.SubmitBatch(reqs, out[:0])
				l.rec.End(sp)
				sp = l.rec.Begin(appendName, -1, id)
				ticket, err := eng.AppendEffects(reqs, out)
				appendNS.Add(int64(l.rec.End(sp)))
				mu.Unlock()
				if err != nil {
					failed.Add(1)
					continue
				}
				sp = l.rec.Begin(waitName, -1, id)
				if eng.WaitDurable(ticket) != nil {
					failed.Add(1)
				}
				l.rec.End(sp)
			}
		}(c)
	}
	wg.Wait()
	st := eng.StatsSnapshot()
	if err := eng.Close(); err != nil {
		return err
	}
	if failed.Load() > 0 || st.AppendedRecords != int64(l.reqs) {
		l.problem("persist rung: %d calls failed, %d of %d effects appended", failed.Load(), st.AppendedRecords, l.reqs)
	}
	l.v.set("persist.append_ns_per_req", float64(appendNS.Load())/float64(l.reqs), l.chunks*Conns)
	waits := sortedCopy(l.rec.Durations(waitName))
	l.v.set("persist.wait_durable_p50_us", us(Percentile(waits, 50)), len(waits))
	l.v.set("persist.wait_durable_p99_us", us(Percentile(waits, 99)), len(waits))
	l.v.set("persist.reqs_per_fsync", float64(st.AppendedRecords)/float64(st.Fsyncs), int(st.Fsyncs))
	l.v.set("persist.wal_bytes_per_req", float64(st.BytesWritten)/float64(st.AppendedRecords), 0)

	// Recovery: reopen, then replay the whole log through a fresh engine,
	// which re-checks every logged verdict.
	fresh, err := l.freshDist()
	if err != nil {
		return err
	}
	recoverName := l.rec.Name("persist:persist.Open+Replay")
	sp := l.rec.Begin(recoverName, -1, -1)
	eng2, rec, err := persist.Open(dir, opts)
	if err != nil {
		return err
	}
	applied, err := persist.Replay(rec.Tail, fresh)
	took := l.rec.End(sp)
	eng2.Close()
	if err != nil || applied != l.reqs {
		l.problem("persist rung: replay applied %d of %d effects: %v", applied, l.reqs, err)
	}
	l.v.set("persist.recover_ns_per_effect", float64(took.Nanoseconds())/float64(l.reqs), 1)
	return nil
}

// stubServer answers the wire protocol with all-granted Results and nothing
// behind them: the client and socket floor.
type stubServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startStub(in *Input) (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(nc, in)
			}()
		}
	}()
	return s, nil
}

func (s *stubServer) serve(nc net.Conn, in *Input) {
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
	out = wire.AppendWelcome(out[:0], wire.Welcome{Version: wire.Version, Tenant: h.Tenant,
		M: in.W.M, W: in.W.W, TopoSig: in.TopoSig})
	if _, err := nc.Write(out); err != nil {
		return
	}
	var sub wire.Submit
	var res []wire.Result
	serial := int64(0)
	for {
		ft, p, err := wire.ReadFrame(br, &rbuf)
		if err != nil || ft != wire.FrameSubmit || wire.DecodeSubmit(p, &sub) != nil {
			return
		}
		res = res[:0]
		for range sub.Reqs {
			serial++
			res = append(res, wire.Result{Outcome: uint8(controller.Granted), Serial: serial})
		}
		out = wire.AppendResults(out[:0], sub.ID, res)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

func (s *stubServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// rungClient drives Client.SubmitMany at the workload's chunk size against
// the stub.
func (l *ladder) rungClient() error {
	stub, err := startStub(l.in)
	if err != nil {
		return err
	}
	defer stub.stop()
	var subs [Conns]manySubmitter
	for c := range subs {
		cl, err := client.Dial(stub.ln.Addr().String(), client.Options{Conns: 1})
		if err != nil {
			return err
		}
		defer cl.Close()
		subs[c] = cl
	}
	tallies := newTallies(l.in)
	m0 := mallocs()
	elapsed := runClosedAll(subs, l.in, 0, l.chunks, tallies, l.rec, "client:client.SubmitMany")
	allocs := mallocs() - m0
	total := mergeTallies(tallies)
	if total.Granted != int64(l.reqs) {
		l.problem("client rung: %d of %d requests granted by the stub", total.Granted, l.reqs)
	}
	lat := sortedCopy(total.Lat)
	l.v.set("client.stub_rtt_p50_us", us(Percentile(lat, 50)), len(lat))
	l.v.set("client.stub_ns_per_req", float64(elapsed.Nanoseconds())/float64(l.reqs), len(lat))
	l.v.set("client.allocs_per_req", float64(allocs)/float64(l.reqs), 0)
	return nil
}
