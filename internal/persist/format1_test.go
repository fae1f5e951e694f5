package persist_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/oracle"
	"dynctrl/internal/persist"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// testdata/format1 is the WAL directory of one seeded run of the daemon's
// engine, written while snapshots were format 1: churn of all four change
// kinds, deletions among them, over a balanced tree of 64 nodes; a
// checkpoint after request fixtureCheckpoint; the first reject, its wave
// marker (a record format 1 wrote and today's engine does not) and rejects
// from then on; fixtureRequests requests in all, in one incarnation. The constants of TestFormat1FixtureRecovers were read off
// the code that wrote it, so a later build must recover it to the same
// verdicts, counts and serials whatever format it writes today. It cannot
// be written again: writeFixtureRun now checkpoints at format 2 and writes
// no wave marker, and TestFormat1FixtureLogIsReproduced holds its manifest
// and effect records, not its snapshot, to a fresh run's.
const (
	fixtureM, fixtureW                 = 600, 150
	fixtureRequests, fixtureCheckpoint = 800, 250
	fixtureNodes, fixtureSeed          = 64, 3
	fixtureContinue                    = 40
	fixtureDir                         = "testdata/format1"
)

// fixtureTree is the run's initial tree.
func fixtureTree(t *testing.T) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: fixtureNodes}, fixtureSeed); err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeFixtureRun writes the fixture's run into dir, the way a tenant does:
// each request's effect committed behind its verdict.
func writeFixtureRun(t *testing.T, dir string) {
	t.Helper()
	eng, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := fixtureTree(t)
	ctl := controller.Centralized.NewDynamic(tr, fixtureM, fixtureW)
	gen := workload.NewChurn(tr, workload.DefaultMix(), fixtureSeed)
	reqs := make([]controller.Request, 1)
	results := make([]controller.BatchResult, 1)
	waveAt := 0
	for i := 1; i <= fixtureRequests; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("the generator ran dry at request %d", i)
		}
		grant, err := ctl.Submit(req)
		reqs[0], results[0] = req, controller.BatchResult{Grant: grant, Err: err}
		if err := eng.CommitEffects(reqs, results); err != nil {
			t.Fatal(err)
		}
		if waveAt == 0 && grant.Outcome == controller.Rejected && err == nil {
			waveAt = i
		}
		if i == fixtureCheckpoint {
			if err := eng.Checkpoint(eng.Capture(fixtureM, fixtureW, tr, ctl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if waveAt <= fixtureCheckpoint {
		t.Fatalf("the first reject came at request %d (0: never), not after the checkpoint at %d", waveAt, fixtureCheckpoint)
	}
}

// copyDir copies the regular files of src into a new temporary directory:
// opening a WAL directory writes to it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestFormat1FixtureRecovers recovers the format-1 fixture the way the
// daemon boots a tenant and holds what it finds to constants taken when the
// fixture was written: the audit -verify-wal prints, the verdict hash of
// the logged history and of fixtureContinue more requests, the counters,
// the serial interval left and the tree's signature.
func TestFormat1FixtureRecovers(t *testing.T) {
	dir := copyDir(t, fixtureDir)

	// What -verify-wal reports, one line an incarnation.
	sums, violations, err := persist.VerifyDir(dir, fixtureM)
	if err != nil {
		t.Fatal(err)
	}
	var audit strings.Builder
	for _, s := range sums {
		fmt.Fprintf(&audit, "incarnation=%d granted=%d rejected=%d first_index=%d last_index=%d serials=%d\n",
			s.Incarnation, s.Granted, s.Rejected, s.FirstIndex, s.LastIndex, len(s.Serials))
	}
	fmt.Fprintf(&audit, "violations=%d", len(violations))
	const wantAudit = "incarnation=1 granted=600 rejected=200 first_index=1 last_index=801 serials=0\n" +
		"violations=0"
	if audit.String() != wantAudit {
		t.Errorf("audit:\n%s\nwant:\n%s", audit.String(), wantAudit)
	}

	history, err := persist.ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index == 0 {
		t.Fatal("the fixture recovered no snapshot")
	}
	waves := 0
	for _, r := range rec.Tail {
		if r.Type == persist.RecWave {
			waves++
		}
	}
	if waves != 1 {
		t.Fatalf("%d wave markers in the tail after the snapshot, want 1", waves)
	}
	tr := fixtureTree(t)
	ctl, replayed, err := persist.Recover(rec, controller.Centralized, fixtureM, fixtureW, tr)
	if err != nil {
		t.Fatal(err)
	}

	// Recover verified every verdict of the tail against the log, so the
	// log's verdicts, then the recovered controller's own, are the run's.
	trace := oracle.NewTenantTrace("format1", fixtureM)
	for _, inc := range history {
		for _, r := range inc.Records {
			if r.Type == persist.RecEffect {
				trace.Record(controller.Grant{Outcome: r.Outcome, Serial: r.Serial, NewNode: r.NewNode}, nil)
			}
		}
	}
	gen := workload.NewChurn(tr, workload.DefaultMix(), fixtureSeed+1)
	for i := 0; i < fixtureContinue; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("the generator ran dry at request %d", i)
		}
		trace.Record(ctl.Submit(req))
	}

	board := ctl.State().Inner.Board
	got := fmt.Sprintf("snapshot_index=%d replayed=%d hash=%#x submitted=%d granted=%d rejected=%d errors=%d serial_lo=%d serial_hi=%d signature=%#x size=%d ever=%d",
		rec.Snapshot.Index, replayed, trace.Hash(), trace.Submitted, trace.Granted, trace.Rejected, trace.Errors,
		board.SerialLo, board.SerialHi, tr.Signature(), tr.Size(), tr.EverExisted())
	const want = "snapshot_index=250 replayed=550 hash=0x2a4df33b22d1a481 submitted=840 granted=600 rejected=240 errors=0 " +
		"serial_lo=0 serial_hi=0 signature=0x302305232ff27be7 size=177 ever=346"
	if got != want {
		t.Errorf("recovered run:\n%s\nwant:\n%s", got, want)
	}
	counters := ctl.Counters().Snapshot()
	wantCounters := map[string]int64{"grants": 600, "iterations": 9, "moves": 2971, "rejects": 240, "topo-changes": 451}
	if !reflect.DeepEqual(counters, wantCounters) {
		t.Errorf("counters %#v, want %#v", counters, wantCounters)
	}
}

// A fresh run of the fixture's requests writes the fixture's manifest byte
// for byte and its effect records in order, the same kind, node, child,
// outcome, serial and new node each: the segment format did not move with
// the snapshot format, and the fixture is the run its constants describe.
// The fixture holds one record more, its wave marker, right behind the run
// that decided the first reject and carrying the grant total then; today's
// engine writes none.
func TestFormat1FixtureLogIsReproduced(t *testing.T) {
	dir := t.TempDir()
	writeFixtureRun(t, dir)
	want, err := os.ReadFile(filepath.Join(fixtureDir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("MANIFEST: a fresh run wrote %x, the fixture holds %x", got, want)
	}

	// The records of the one incarnation each directory holds, indices
	// dropped: the marker shifts every fixture index behind it by one.
	records := func(dir string) []persist.Record {
		t.Helper()
		history, err := persist.ReadHistory(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(history) != 1 {
			t.Fatalf("%s: %d incarnations, want 1", dir, len(history))
		}
		rs := history[0].Records
		for i := range rs {
			rs[i].Index = 0
		}
		return rs
	}
	fixture, fresh := records(fixtureDir), records(dir)

	// Each request is its own run, so the run that decided the first reject
	// ends with it, and the marker is the record right behind it.
	first := slices.IndexFunc(fixture, func(r persist.Record) bool { return r.Outcome == controller.Rejected })
	if first < 0 || first+1 == len(fixture) || fixture[first+1].Type != persist.RecWave {
		t.Fatalf("the fixture's first reject (record %d of %d) has no wave marker right behind it", first, len(fixture))
	}
	var granted int64
	for _, r := range fixture[:first] {
		if r.Outcome == controller.Granted {
			granted++
		}
	}
	if got := fixture[first+1].Granted; got != granted {
		t.Errorf("the fixture's wave marker carries %d grants, %d were logged before it", got, granted)
	}
	effects := slices.Delete(fixture, first+1, first+2)
	if len(fresh) != len(effects) {
		t.Fatalf("a fresh run wrote %d records, the fixture holds %d besides its marker", len(fresh), len(effects))
	}
	for i := range fresh {
		if fresh[i] != effects[i] {
			t.Fatalf("record %d: a fresh run wrote %+v, the fixture holds %+v", i, fresh[i], effects[i])
		}
	}
}

// A format-1 directory is upgraded by its next checkpoint: the snapshot
// written after recovering the fixture is format 2, and recovering from it
// rebuilds the state the first recovery reached, to the byte.
func TestFormat1UpgradesAtNextCheckpoint(t *testing.T) {
	dir := copyDir(t, fixtureDir)
	recoverAt := func() (*persist.Engine, *tree.Tree, *controller.Dynamic) {
		t.Helper()
		eng, rec, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := fixtureTree(t)
		ctl, _, err := persist.Recover(rec, controller.Centralized, fixtureM, fixtureW, tr)
		if err != nil {
			t.Fatal(err)
		}
		return eng, tr, ctl
	}
	eng, tr, ctl := recoverAt()
	st := eng.Capture(fixtureM, fixtureW, tr, ctl)
	if err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", st.Index)))
	if err != nil {
		t.Fatal(err)
	}
	if format := binary.LittleEndian.Uint16(snap[4:]); format != 2 {
		t.Fatalf("the checkpoint after recovery wrote format %d, want 2", format)
	}
	eng2, tr2, ctl2 := recoverAt()
	defer eng2.Close()
	encode := func(tr *tree.Tree, ctl *controller.Dynamic) []byte {
		return persist.AppendState(nil, &persist.State{M: fixtureM, W: fixtureW,
			Tree: tr.Snapshot(), Ctl: ctl.State(), Counters: ctl.Counters().Snapshot()})
	}
	if !bytes.Equal(encode(tr2, ctl2), encode(tr, ctl)) {
		t.Fatal("recovering from the format-2 checkpoint rebuilt another state than the format-1 recovery")
	}
}
