package persist_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/obs"
	"dynctrl/internal/persist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

const (
	testM = 4000
	testW = 800
)

// engine is one execution model a stack runs over.
type engine struct {
	name string
	over func(seed int64) controller.Transport
}

// The daemon's engine (centralized) and the scenario suite's
// (message-passing): every stack test runs over both, and the crash-restart
// test also recovers each one's directory under the other.
var (
	centralized = engine{"centralized", func(int64) controller.Transport { return controller.Centralized }}
	distributed = engine{"distributed", func(seed int64) controller.Transport {
		return dist.Over(sim.NewDeterministic(seed))
	}}
	engines = []engine{centralized, distributed}
)

// forEngines runs fn as one subtest per engine.
func forEngines(t *testing.T, fn func(t *testing.T, e engine)) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { fn(t, e) })
	}
}

// stack is one live admission stack a test drives traffic through.
type stack struct {
	tp  controller.Transport
	tr  *tree.Tree
	ctl *controller.Dynamic
}

func newStack(t *testing.T, e engine, seed int64) *stack {
	t.Helper()
	tr, _ := tree.New()
	tp := e.over(seed)
	return &stack{tp: tp, tr: tr, ctl: tp.NewDynamic(tr, testM, testW)}
}

// trafficGen deterministically produces the identical request sequence on
// every run with the same seed: node choices depend only on the set of
// created node ids, which recovery reproduces exactly.
type trafficGen struct {
	rng   *rand.Rand
	root  tree.NodeID
	nodes []tree.NodeID // live non-root nodes, in creation order
}

func newTrafficGen(root tree.NodeID, seed int64) *trafficGen {
	return &trafficGen{rng: rand.New(rand.NewSource(seed)), root: root}
}

func (g *trafficGen) next() controller.Request {
	pick := func() tree.NodeID {
		if len(g.nodes) == 0 {
			return g.root
		}
		if g.rng.Intn(4) == 0 {
			return g.root
		}
		return g.nodes[g.rng.Intn(len(g.nodes))]
	}
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		return controller.Request{Node: pick(), Kind: tree.AddLeaf}
	case 3:
		if len(g.nodes) > 4 {
			// Remove the most recent node when it is a leaf (it is, unless
			// something was attached under it; then fall through to an
			// event, keeping the sequence deterministic either way).
			return controller.Request{Node: g.nodes[len(g.nodes)-1], Kind: tree.RemoveLeaf}
		}
		fallthrough
	default:
		return controller.Request{Node: pick(), Kind: tree.None}
	}
}

// observe folds a grant back into the generator's view of the world.
func (g *trafficGen) observe(req controller.Request, grant controller.Grant, err error) {
	if err != nil || grant.Outcome != controller.Granted {
		return
	}
	switch req.Kind {
	case tree.AddLeaf:
		g.nodes = append(g.nodes, grant.NewNode)
	case tree.RemoveLeaf:
		for i, id := range g.nodes {
			if id == req.Node {
				g.nodes = append(g.nodes[:i], g.nodes[i+1:]...)
				break
			}
		}
	}
}

type traceEntry struct {
	outcome controller.Outcome
	serial  int64
	newNode tree.NodeID
	failed  bool
}

// runLogged submits n requests, committing each effect to eng (when non
// nil) and checkpointing when the engine asks for it.
func runLogged(t *testing.T, s *stack, g *trafficGen, eng *persist.Engine, n int) []traceEntry {
	t.Helper()
	var trace []traceEntry
	reqs := make([]controller.Request, 1)
	results := make([]controller.BatchResult, 1)
	for i := 0; i < n; i++ {
		req := g.next()
		grant, err := s.ctl.Submit(req)
		g.observe(req, grant, err)
		trace = append(trace, traceEntry{grant.Outcome, grant.Serial, grant.NewNode, err != nil})
		if eng == nil {
			continue
		}
		reqs[0] = req
		results[0] = controller.BatchResult{Grant: grant, Err: err}
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatalf("commit effect %d: %v", i, err)
		}
		if eng.ShouldCheckpoint() {
			st := eng.Capture(testM, testW, s.tr, s.ctl)
			if err := eng.Checkpoint(st); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	return trace
}

// recoverStack boots a stack from dir the way the daemon and the scenario
// runner do: a bare tree and e's transport, handed to persist.Recover with
// the snapshot and tail Open found.
func recoverStack(t *testing.T, e engine, dir string, seed int64, opts persist.Options) (*persist.Engine, *stack, *persist.Recovery) {
	t.Helper()
	eng, rec, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	// A schedule of its own: a recovered controller need not run over the
	// crashed one's.
	tr, _ := tree.New()
	s := &stack{tp: e.over(seed + 100), tr: tr}
	if s.ctl, _, err = persist.Recover(rec, s.tp, testM, testW, s.tr); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return eng, s, rec
}

// TestRecoveryMatchesUninterruptedRun is the core determinism property: a
// run that crashes (at a point of the test's choosing) and recovers
// produces the identical grant/reject/serial/new-node trace as the same
// request sequence against a never-crashed stack — whichever engine wrote
// the directory and whichever recovers it, so a WAL survives the daemon
// changing engines. Over one engine the recovered controller also counts
// what the crashed one counted, exactly, whether the counts come from a
// snapshot or from replaying the whole log, and counts on into that set.
func TestRecoveryMatchesUninterruptedRun(t *testing.T) {
	const total, crashAt = 600, 337
	for _, writer := range engines {
		for _, recoverer := range engines {
			for _, snapEvery := range []int64{0, 100} {
				t.Run(fmt.Sprintf("%s-to-%s/snap%d", writer.name, recoverer.name, snapEvery), func(t *testing.T) {
					ref := newStack(t, recoverer, 7)
					refGen := newTrafficGen(ref.tr.Root(), 11)
					want := runLogged(t, ref, refGen, nil, crashAt)
					atCrash := ref.ctl.Counters().Snapshot()
					want = append(want, runLogged(t, ref, refGen, nil, total-crashAt)...)

					dir := t.TempDir()
					eng, rec, err := persist.Open(dir, persist.Options{SnapshotEvery: snapEvery})
					if err != nil {
						t.Fatal(err)
					}
					if rec.Snapshot != nil || len(rec.Tail) != 0 {
						t.Fatalf("fresh dir recovered snapshot=%v tail=%d", rec.Snapshot, len(rec.Tail))
					}
					if eng.Incarnation() != 1 {
						t.Fatalf("first boot incarnation %d, want 1", eng.Incarnation())
					}
					s := newStack(t, writer, 7)
					gen := newTrafficGen(s.tr.Root(), 11)
					got := runLogged(t, s, gen, eng, crashAt)
					eng.Abandon() // kill -9: nothing after the last fsync survives

					eng2, s2, rec2 := recoverStack(t, recoverer, dir, 7, persist.Options{SnapshotEvery: snapEvery})
					if eng2.Incarnation() != 2 {
						t.Fatalf("second boot incarnation %d, want 2", eng2.Incarnation())
					}
					if snapEvery > 0 && rec2.Snapshot == nil {
						t.Fatalf("no snapshot recovered despite SnapshotEvery=%d over %d effects", snapEvery, crashAt)
					}
					// The two engines count different things (moves, control
					// messages), so counts compare only over one.
					sameEngine := writer.name == recoverer.name
					counters := s2.ctl.Counters()
					if got := counters.Snapshot(); sameEngine && !reflect.DeepEqual(got, atCrash) {
						t.Fatalf("recovered counters %v, the uninterrupted run's at index %d %v", got, crashAt, atCrash)
					}
					got = append(got, runLogged(t, s2, gen, eng2, total-crashAt)...)
					if err := eng2.Close(); err != nil {
						t.Fatal(err)
					}
					if s2.ctl.Counters() != counters {
						t.Fatal("the recovered controller replaced its counters after recovery")
					}
					if got, want := counters.Snapshot(), ref.ctl.Counters().Snapshot(); sameEngine && !reflect.DeepEqual(got, want) {
						t.Fatalf("counters after the restart %v, the uninterrupted run's %v", got, want)
					}

					if len(got) != len(want) {
						t.Fatalf("trace length %d, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trace diverges at request %d: got %+v, want %+v", i, got[i], want[i])
						}
					}

					sums, violations, err := persist.VerifyDir(dir, testM)
					if err != nil {
						t.Fatal(err)
					}
					if len(violations) != 0 {
						t.Fatalf("cross-incarnation violations: %v", violations)
					}
					if len(sums) != 2 {
						t.Fatalf("%d incarnations in history, want 2", len(sums))
					}
				})
			}
		}
	}
}

// TestRecoveryTornFinalRecord: a record cut mid-write is truncated and the
// log recovers through the last complete record.
func TestRecoveryTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []controller.Request{{Node: 1, Kind: tree.None}}
	results := []controller.BatchResult{{Grant: controller.Grant{Outcome: controller.Granted}}}
	for i := 0; i < 10; i++ {
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Append half of a valid block to the active segment: a torn tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	whole := persist.AppendRecords(nil, []persist.Record{{
		Index: 11, Type: persist.RecEffect, Node: 1,
		Kind: tree.None, Outcome: controller.Granted,
	}})
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(whole[:len(whole)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logged bytes.Buffer
	logger, err := obs.NewLogger(&logged, slog.LevelWarn, "text")
	if err != nil {
		t.Fatal(err)
	}
	eng2, rec, err := persist.Open(dir, persist.Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	warned := strings.Contains(logged.String(), "level=WARN") && strings.Contains(logged.String(), "torn tail")
	if rec.TruncatedBytes == 0 || !warned {
		t.Fatalf("torn tail not truncated (bytes=%d warned=%v)", rec.TruncatedBytes, warned)
	}
	if len(rec.Tail) != 10 {
		t.Fatalf("recovered %d records, want the 10 complete ones", len(rec.Tail))
	}
	if rec.Tail[9].Index != 10 {
		t.Fatalf("last recovered index %d, want 10", rec.Tail[9].Index)
	}
}

// TestRecoveryHeaderlessSegment: a crash between segment creation and the
// header fsync leaves a headerless file; it must be skipped on every
// subsequent boot (and by the history audit), not just the first one.
func TestRecoveryHeaderlessSegment(t *testing.T) {
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []controller.Request{{Node: 1, Kind: tree.None}}
	results := []controller.BatchResult{{Grant: controller.Grant{Outcome: controller.Granted}}}
	for i := 0; i < 5; i++ {
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// A 0-byte segment with the next sequence number: the crash artifact.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for boot := 2; boot <= 4; boot++ {
		eng, rec, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatalf("boot %d after headerless segment: %v", boot, err)
		}
		if len(rec.Tail) != 5 {
			t.Fatalf("boot %d recovered %d records, want 5", boot, len(rec.Tail))
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := persist.VerifyDir(dir, 100); err != nil {
			t.Fatalf("boot %d: history audit: %v", boot, err)
		}
	}
}

// TestRecoveryTruncatedSnapshot: a snapshot file cut short fails its frame
// checks and recovery falls back to replaying the whole log.
func TestRecoveryTruncatedSnapshot(t *testing.T) {
	forEngines(t, func(t *testing.T, e engine) {
		dir := t.TempDir()
		eng, _, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := newStack(t, e, 3)
		gen := newTrafficGen(s.tr.Root(), 5)
		runLogged(t, s, gen, eng, 60)
		if err := eng.Checkpoint(eng.Capture(testM, testW, s.tr, s.ctl)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots: %v %v", snaps, err)
		}
		buf, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snaps[0], buf[:len(buf)/2], 0o644); err != nil {
			t.Fatal(err)
		}

		eng2, s2, rec := recoverStack(t, e, dir, 3, persist.Options{})
		defer eng2.Close()
		if rec.CorruptSnapshots != 1 {
			t.Fatalf("CorruptSnapshots = %d, want 1", rec.CorruptSnapshots)
		}
		if rec.Snapshot != nil {
			t.Fatal("truncated snapshot was accepted")
		}
		if len(rec.Tail) != 60 {
			t.Fatalf("tail %d records, want full replay of 60", len(rec.Tail))
		}
		if s2.ctl.Granted() != s.ctl.Granted() {
			t.Fatalf("recovered %d grants, want %d", s2.ctl.Granted(), s.ctl.Granted())
		}
	})
}

// TestRecoveryEmptyDir: opening a fresh directory boots cleanly.
func TestRecoveryEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub", "wal")
	eng, rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Tail) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("non-empty recovery from fresh dir: %+v", rec)
	}
	if eng.Incarnation() != 1 {
		t.Fatalf("incarnation %d, want 1", eng.Incarnation())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen bumps the incarnation even with no traffic.
	eng2, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", eng2.Incarnation())
	}
}

// TestRecoverySnapshotNewerThanWAL: when every segment covered by the
// snapshot is gone (or the snapshot outran a lost tail), recovery proceeds
// from the snapshot alone and indexing continues past it.
func TestRecoverySnapshotNewerThanWAL(t *testing.T) {
	forEngines(t, func(t *testing.T, e engine) {
		dir := t.TempDir()
		eng, _, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := newStack(t, e, 3)
		gen := newTrafficGen(s.tr.Root(), 5)
		runLogged(t, s, gen, eng, 40)
		if err := eng.Checkpoint(eng.Capture(testM, testW, s.tr, s.ctl)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		// Remove every WAL segment, leaving only MANIFEST + snapshot.
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		for _, seg := range segs {
			os.Remove(seg)
		}

		eng2, s2, rec := recoverStack(t, e, dir, 3, persist.Options{})
		if rec.Snapshot == nil || rec.Snapshot.Index != 40 {
			t.Fatalf("snapshot not recovered: %+v", rec.Snapshot)
		}
		if len(rec.Tail) != 0 {
			t.Fatalf("tail %d records, want none", len(rec.Tail))
		}
		// New effects continue the index space after the snapshot.
		reqs := []controller.Request{{Node: s2.tr.Root(), Kind: tree.None}}
		g, err := s2.ctl.Submit(reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		ticket, err := eng2.AppendEffects(reqs, []controller.BatchResult{{Grant: g}})
		if err != nil {
			t.Fatal(err)
		}
		if ticket != 41 {
			t.Fatalf("next index %d, want 41", ticket)
		}
		if err := eng2.WaitDurable(ticket); err != nil {
			t.Fatal(err)
		}
		if err := eng2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloseDuringCheckpointRace is the raced regression test: Close racing
// a background checkpoint (and concurrent appends) must neither panic nor
// corrupt the directory. Run under -race in CI.
func TestCloseDuringCheckpointRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		dir := t.TempDir()
		eng, _, err := persist.Open(dir, persist.Options{SnapshotEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		s := newStack(t, centralized, int64(round))
		gen := newTrafficGen(s.tr.Root(), int64(round)+50)

		var wg sync.WaitGroup
		var mu sync.Mutex // the stack is serial; appenders share it
		wg.Add(2)
		go func() {
			defer wg.Done()
			reqs := make([]controller.Request, 1)
			results := make([]controller.BatchResult, 1)
			for i := 0; i < 200; i++ {
				mu.Lock()
				req := gen.next()
				grant, err := s.ctl.Submit(req)
				gen.observe(req, grant, err)
				reqs[0], results[0] = req, controller.BatchResult{Grant: grant, Err: err}
				ticket, aerr := eng.AppendEffects(reqs, results)
				var snap *persist.State
				if aerr == nil && eng.ShouldCheckpoint() {
					snap = eng.Capture(testM, testW, s.tr, s.ctl)
				}
				mu.Unlock()
				if aerr != nil {
					return // engine closed under us: expected half the time
				}
				if snap != nil {
					eng.CheckpointAsync(snap)
				}
				if eng.WaitDurable(ticket) != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Let some traffic through, then slam the door.
			for {
				mu.Lock()
				done := eng.StatsSnapshot().AppendedIndex > uint64(16+round*9)
				mu.Unlock()
				if done {
					break
				}
			}
			eng.Close()
		}()
		wg.Wait()
		eng.Close()

		// The directory must still recover cleanly.
		eng2, _, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatalf("round %d: reopen after raced close: %v", round, err)
		}
		eng2.Close()
	}
}

// TestCloseReportsLostFlush: when the write or fsync of the records Close
// flushes fails, Close says so; a nil return would tell the caller that
// records which never reached the disk are durable.
func TestCloseReportsLostFlush(t *testing.T) {
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	readOnly, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.SwapSegmentForTests(readOnly).Close()
	reqs := []controller.Request{{Node: 1, Kind: tree.None}}
	results := []controller.BatchResult{{Grant: controller.Grant{Outcome: controller.Granted}}}
	if _, err := eng.AppendEffects(reqs, results); err != nil {
		t.Fatal(err)
	}
	err = eng.Close()
	if st := eng.StatsSnapshot(); st.AppendedIndex != 1 || st.DurableIndex != 0 {
		t.Fatalf("appended %d, durable %d; want 1 and 0", st.AppendedIndex, st.DurableIndex)
	}
	if err == nil {
		t.Fatal("Close returned nil although the record it flushed never reached the disk")
	}
}

// TestSnapshotLengthCannotWrap: a checksum-valid snapshot that declares a
// string length or a collection count of 2^31 is refused as corrupt. Where
// int is 32 bits (GOARCH=386) a signed comparison lets both past the bounds
// check as negative numbers: the string length makes DecodeSnapshot slice
// out of range and panic where boot recovery must skip the snapshot, and
// the count reads as no elements, which only the trailing-bytes check
// catches.
func TestSnapshotLengthCannotWrap(t *testing.T) {
	st := fuzzState()
	st.Counters = map[string]int64{"x": 1}
	enc := persist.AppendState(nil, st)
	// The payload ends with the counters: their count, then the one
	// counter's name length, its name "x" and its value.
	for _, tc := range []struct {
		field string
		back  int
	}{
		{"counter name length", 4 + 1 + 8},
		{"counter count", 4 + 4 + 1 + 8},
	} {
		p := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(p[len(p)-tc.back:], 0x80000000)
		binary.LittleEndian.PutUint32(p[14:], crc32.Checksum(p[18:], crc32.MakeTable(crc32.Castagnoli)))
		if _, err := persist.DecodeSnapshot(p); err == nil {
			t.Errorf("snapshot with %s 0x80000000 accepted", tc.field)
		}
	}
}

// TestSnapshotIntFieldsCannotWrap: a checksum-valid snapshot whose count of
// ids ever or count of iterations reads 2^32+1 is refused as corrupt or
// decodes to exactly that value. Where int is 32 bits (GOARCH=386) a bare
// conversion of the 64-bit field wraps it to 1; the 64-bit build decodes
// the value, and the tree refuses the count of ids.
func TestSnapshotIntFieldsCannotWrap(t *testing.T) {
	const wide = 1<<32 + 1
	// Markers in place of the two counts locate their fields in the payload.
	const everMark, iterationsMark = 0x5a5a5a01, 0x5a5a5a02
	st := fuzzState()
	st.Tree.EverExisted = everMark
	st.Ctl.Iterations = iterationsMark
	enc := persist.AppendState(nil, st)
	if _, err := persist.DecodeSnapshot(enc); err != nil {
		t.Fatalf("the marked snapshot does not decode: %v", err)
	}
	for _, tc := range []struct {
		field string
		mark  uint64
		read  func(*persist.State) int64
	}{
		{"ids ever", everMark, func(st *persist.State) int64 { return int64(st.Tree.EverExisted) }},
		{"iterations", iterationsMark, func(st *persist.State) int64 { return int64(st.Ctl.Iterations) }},
	} {
		mark := binary.LittleEndian.AppendUint64(nil, tc.mark)
		if n := bytes.Count(enc[18:], mark); n != 1 {
			t.Fatalf("%s marker found %d times in the payload", tc.field, n)
		}
		p := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(p[18+bytes.Index(enc[18:], mark):], wide)
		binary.LittleEndian.PutUint32(p[14:], crc32.Checksum(p[18:], crc32.MakeTable(crc32.Castagnoli)))
		dec, err := persist.DecodeSnapshot(p)
		if err != nil {
			continue
		}
		if got := tc.read(dec); got != wide {
			t.Errorf("%s 2^32+1 decoded as %d", tc.field, got)
		}
		tr, _ := tree.New()
		_, _, err = persist.Recover(&persist.Recovery{Snapshot: dec}, controller.Centralized, dec.M, dec.W, tr)
		if tc.field == "ids ever" && err == nil {
			t.Errorf("snapshot with %s 2^32+1 recovered", tc.field)
		}
	}
}

// TestGroupCommitConcurrentAppends: many goroutines appending and waiting
// on their tickets all become durable, with far fewer fsyncs than records.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reqs := []controller.Request{{Node: 1, Kind: tree.None}}
			results := []controller.BatchResult{{Grant: controller.Grant{Outcome: controller.Granted}}}
			for i := 0; i < perWorker; i++ {
				ticket, err := eng.AppendEffects(reqs, results)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := eng.WaitDurable(ticket); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := eng.StatsSnapshot()
	if st.AppendedRecords != workers*perWorker {
		t.Fatalf("appended %d records, want %d", st.AppendedRecords, workers*perWorker)
	}
	if st.DurableIndex != uint64(workers*perWorker) {
		t.Fatalf("durable index %d, want %d", st.DurableIndex, workers*perWorker)
	}
	if st.Fsyncs >= st.AppendedRecords {
		t.Fatalf("%d fsyncs for %d records: group commit is not grouping", st.Fsyncs, st.AppendedRecords)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	history, err := persist.ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(history[0].Records); n != workers*perWorker {
		t.Fatalf("history holds %d records, want %d", n, workers*perWorker)
	}
}

// TestWaveSplitsIntoBoundedBlocks: a backlog larger than the seal
// threshold is framed as several blocks sharing one fsync, and every
// record survives recovery — an unbounded wave must never produce a block
// the reader would reject as oversized.
func TestWaveSplitsIntoBoundedBlocks(t *testing.T) {
	defer persist.SetSealBytesForTests(64)()
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One giant batch: far more packed bytes than one 64-byte seal span.
	const n = 500
	reqs := make([]controller.Request, n)
	results := make([]controller.BatchResult, n)
	for i := range reqs {
		reqs[i] = controller.Request{Node: tree.NodeID(i + 1), Kind: tree.None}
		results[i] = controller.BatchResult{Grant: controller.Grant{Outcome: controller.Granted}}
	}
	if err := eng.CommitEffects(reqs, results); err != nil {
		t.Fatal(err)
	}
	st := eng.StatsSnapshot()
	if st.Fsyncs == 0 || st.Fsyncs > 2 {
		t.Fatalf("%d fsyncs for one wave, want the whole split wave under one or two", st.Fsyncs)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Walk the blocks: each holds under 64 packed bytes plus the record
	// that reached the bound (at most 3 bytes here: a tag and a node id
	// below 2^14), so the wave spans many.
	const blockPrefix, maxRecord = 8 + 8 + 4, 3
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for off := persist.SegmentHeaderLen; off < len(seg); blocks++ {
		_, size, err := persist.DecodeWALRecords(seg[off:], nil)
		if err != nil {
			t.Fatalf("block %d at offset %d: %v", blocks, off, err)
		}
		if packed := size - blockPrefix; packed >= 64+maxRecord {
			t.Fatalf("block %d holds %d packed bytes, bound 64 plus one record", blocks, packed)
		}
		off += size
	}
	if blocks < 2 {
		t.Fatalf("the %d-record wave went into %d block", n, blocks)
	}

	eng2, rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if len(rec.Tail) != n {
		t.Fatalf("recovered %d records across split blocks, want %d", len(rec.Tail), n)
	}
	for i, r := range rec.Tail {
		if r.Index != uint64(i+1) || r.Node != tree.NodeID(i+1) {
			t.Fatalf("record %d decoded as index %d node %d", i, r.Index, r.Node)
		}
	}
}

// TestSegmentRotation: a tiny segment threshold rotates files and recovery
// reads records across the segment boundary.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	eng, _, err := persist.Open(dir, persist.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []controller.Request{{Node: 1, Kind: tree.None}}
	results := []controller.BatchResult{{Grant: controller.Grant{Outcome: controller.Granted}}}
	for i := 0; i < 100; i++ {
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("%d segments, want rotation to have produced several", len(segs))
	}
	eng2, rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if len(rec.Tail) != 100 {
		t.Fatalf("recovered %d records across segments, want 100", len(rec.Tail))
	}
}

// TestStateCodecRoundTrip: encode → decode → encode is the identity on a
// real captured state.
func TestStateCodecRoundTrip(t *testing.T) {
	forEngines(t, func(t *testing.T, e engine) {
		s := newStack(t, e, 21)
		gen := newTrafficGen(s.tr.Root(), 22)
		runLogged(t, s, gen, nil, 150)
		st := &persist.State{
			Index:       150,
			Incarnation: 3,
			M:           testM,
			W:           testW,
			Tree:        s.tr.Snapshot(),
			Ctl:         s.ctl.State(),
			Counters:    s.ctl.Counters().Snapshot(),
		}
		enc1 := persist.AppendState(nil, st)
		dec, err := persist.DecodeSnapshot(enc1)
		if err != nil {
			t.Fatal(err)
		}
		enc2 := persist.AppendState(nil, dec)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("state codec round trip is not the identity")
		}

		// The decoded state restores into an equivalent stack.
		tr, _ := tree.New()
		ctl, _, err := persist.Recover(&persist.Recovery{Snapshot: dec}, e.over(99), testM, testW, tr)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Granted() != s.ctl.Granted() {
			t.Fatalf("restored %d grants, want %d", ctl.Granted(), s.ctl.Granted())
		}
		if tr.Size() != s.tr.Size() || tr.Changes() != s.tr.Changes() {
			t.Fatalf("restored tree size/changes %d/%d, want %d/%d",
				tr.Size(), tr.Changes(), s.tr.Size(), s.tr.Changes())
		}
	})
}

// TestReplayDivergenceDetected: a doctored effect record makes replay fail
// loudly instead of continuing from a diverged state.
func TestReplayDivergenceDetected(t *testing.T) {
	forEngines(t, func(t *testing.T, e engine) {
		s := newStack(t, e, 2)
		tail := []persist.Record{{
			Index: 1, Type: persist.RecEffect,
			Node: s.tr.Root(), Kind: tree.AddLeaf,
			Outcome: controller.Granted, NewNode: 999, // the real id will be 2
		}}
		if _, err := persist.Replay(tail, s.ctl); err == nil {
			t.Fatal("replay accepted a diverged new-node id")
		}
	})
}
