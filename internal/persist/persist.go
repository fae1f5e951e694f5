// Package persist is the durability engine of the dynctrld admission
// stack: a length-prefixed, checksummed write-ahead log of controller
// effects (grants, rejects, topology changes) plus periodic snapshots of
// the full tree + controller.Dynamic + serial allocator state. The reject
// wave is not logged on its own: it is the controller's state, rebuilt by
// replay like the rest of it. Logs written before that carry a wave marker
// (RecWave), which the reader still decodes and every consumer skips.
//
// # Write path
//
// Effects are appended in controller execution order and become durable via
// group commit. An append only frames its records into blocks as it packs
// them, in an in-memory buffer that holds exactly the bytes the next write
// will carry, and returns a ticket (the last appended WAL index). A single
// background syncer takes the buffer once per wakeup, checksums its
// blocks, writes it to the active segment as it is and fsyncs once,
// covering every batch appended since the previous fsync. Callers that
// must not release a result before it is durable block in
// WaitDurable(ticket) — the dynctrld server does exactly that between
// running a read batch through the controller and writing its Results
// frames, so other connections' batches are decided while earlier ones
// ride out their fsync (at most one fsync per run, usually far fewer).
//
// # Recovery
//
// Open scans the directory: the latest structurally valid snapshot is
// decoded, segments are scanned in order, a torn final record (a crash mid
// write) is truncated, and every effect after the snapshot's index is
// returned for replay. Recover restores the snapshot and re-submits the
// logged requests through the restored controller, verifying that each
// verdict matches the log — the controller stack is deterministic given its
// state and the request sequence, so recovery either reproduces the
// pre-crash state exactly or fails loudly. Capture is the one way to take
// the state a snapshot holds. Each Open bumps the incarnation counter in
// MANIFEST; the cross-incarnation oracle checks (no serial reused, granted
// ≤ M summed across restarts) run over the whole retained record history.
package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/tree"
)

// errClosed is returned by operations on a closed engine.
var errClosed = errors.New("persist: engine closed")

// defaultSegmentBytes is the segment rotation threshold.
const defaultSegmentBytes = 8 << 20

// sealBytes bounds the packed payload of one block (half of maxBlockLen,
// so a sealed wave can never approach the reader's rejection threshold).
// A variable only so the block-splitting test can shrink it.
var sealBytes = maxBlockLen / 2

// Options configures an Engine.
type Options struct {
	// SnapshotEvery asks ShouldCheckpoint to fire every n effect records
	// (0 disables automatic checkpoints; Checkpoint can still be called
	// explicitly).
	SnapshotEvery int64
	// SegmentBytes is the rotation threshold of the active segment
	// (default defaultSegmentBytes).
	SegmentBytes int64
	// CommitWindow is how long the group-commit syncer waits after picking
	// up a batch for more batches to pile in before it fsyncs (0 = fsync
	// immediately). A window around the fsync latency roughly halves the
	// fsyncs per decided batch under concurrent load at the cost of that
	// much added commit latency.
	CommitWindow time.Duration
	// Logger, when set, receives recovery and checkpoint warnings (torn
	// tails truncated, corrupt snapshots skipped, failed background
	// checkpoints).
	Logger *slog.Logger
	// SyncObserver, when set, is called by the group-commit syncer after
	// every fsync wave with the number of records the wave made durable
	// and its write+fsync duration. Called from the syncer goroutine, one
	// wave at a time; implementations must be cheap and must not call back
	// into the engine.
	SyncObserver func(records int, d time.Duration)
}

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// Snapshot is the latest valid snapshot (nil when booting fresh).
	Snapshot *State
	// Tail holds the records to replay on top of the snapshot, in log
	// order: effects, and in an older log the wave marker.
	Tail []Record
	// TruncatedBytes counts torn-tail bytes dropped from the final
	// segment.
	TruncatedBytes int64
	// CorruptSnapshots counts snapshot files that failed to decode and
	// were skipped.
	CorruptSnapshots int
}

// Stats is a point-in-time sample of the engine's activity counters.
type Stats struct {
	Incarnation       uint64
	AppendedRecords   int64
	AppendedIndex     uint64
	DurableIndex      uint64
	Fsyncs            int64
	BytesWritten      int64
	Segments          int64
	Snapshots         int64
	LastSnapshotIndex uint64
}

// Engine is a live WAL directory: one process appends, syncs and
// checkpoints at a time. It is safe for concurrent use.
type Engine struct {
	dir  string
	opts Options

	mu          sync.Mutex
	appendCond  *sync.Cond // wakes the syncer
	durableCond *sync.Cond // wakes WaitDurable callers
	// buf holds the blocks not yet handed to the syncer, framed as they
	// will be written: closed blocks, then the open one at buf[open:]
	// (open is -1 when there is none), whose length and count are filled
	// in when it closes. No block's crc is filled in until the syncer
	// takes buf.
	buf       []byte
	open      int
	free      []byte // recycled append buffer
	nextIndex uint64
	durable   uint64 // last index fsynced
	syncErr   error  // sticky write/fsync failure
	closed    bool
	abandoned bool
	snapBusy  bool
	sinceSnap int64
	stats     Stats

	// The active segment file is owned by the syncer goroutine after Open
	// (the checkpoint path never touches it).
	f        *os.File
	fileSize int64

	wg sync.WaitGroup
}

// Open recovers the WAL directory (creating it if needed), bumps the
// incarnation, opens a fresh active segment and starts the group-commit
// syncer. The returned Recovery carries the snapshot + record tail the
// caller must replay before submitting new work.
func Open(dir string, opts Options) (*Engine, *Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	rec, lastIndex, maxSeq, err := recoverDir(dir, opts.Logger)
	if err != nil {
		return nil, nil, err
	}

	inc, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	inc++
	if err := writeManifest(dir, inc); err != nil {
		return nil, nil, err
	}

	e := &Engine{
		dir:       dir,
		opts:      opts,
		open:      -1,
		nextIndex: lastIndex + 1,
		durable:   lastIndex,
	}
	e.appendCond = sync.NewCond(&e.mu)
	e.durableCond = sync.NewCond(&e.mu)
	e.stats.Incarnation = inc
	if rec.Snapshot != nil {
		e.stats.LastSnapshotIndex = rec.Snapshot.Index
	}

	// A fresh segment per incarnation: old segments are never appended to,
	// so their contents stay attributable to the incarnation that wrote
	// them.
	if err := e.createSegment(maxSeq+1, e.nextIndex); err != nil {
		return nil, nil, err
	}

	e.wg.Add(1)
	go e.syncLoop()
	return e, rec, nil
}

// recoverDir scans snapshots and segments, truncating a torn tail in the
// final segment. It returns the recovery report, the highest WAL index on
// disk, and the highest segment sequence number.
func recoverDir(dir string, logger *slog.Logger) (*Recovery, uint64, uint64, error) {
	rec := &Recovery{}

	if err := loadLatestSnapshot(dir, rec, logger); err != nil {
		return nil, 0, 0, err
	}

	scans, tornBytes, maxSeq, err := scanSegments(dir, true, logger)
	if err != nil {
		return nil, 0, 0, err
	}
	rec.TruncatedBytes = tornBytes

	snapIndex := uint64(0)
	if rec.Snapshot != nil {
		snapIndex = rec.Snapshot.Index
	}
	lastIndex := snapIndex
	for _, sr := range scans {
		for _, r := range sr.records {
			if r.Index != lastIndex+1 && r.Index > snapIndex {
				return nil, 0, 0, fmt.Errorf("persist: WAL index gap: record %d follows %d in %s",
					r.Index, lastIndex, segmentPath(dir, sr.seq))
			}
			if r.Index > snapIndex {
				lastIndex = r.Index
				rec.Tail = append(rec.Tail, r)
			}
		}
	}
	return rec, lastIndex, maxSeq, nil
}

// loadLatestSnapshot fills rec.Snapshot with the newest structurally
// valid snapshot in dir. Corrupt ones are skipped (counted in rec) so a
// crash mid-checkpoint (or bit rot) degrades to the previous snapshot
// plus a longer replay, never to a failed boot.
func loadLatestSnapshot(dir string, rec *Recovery, logger *slog.Logger) error {
	snaps, err := listNumbered(dir, snapshotPrefix, snapshotSuffix, 16)
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(snapshotPath(dir, snaps[i]))
		if err != nil {
			return err
		}
		st, err := DecodeSnapshot(buf)
		if err != nil {
			rec.CorruptSnapshots++
			logger.Warn("skipping corrupt snapshot", "path", snapshotPath(dir, snaps[i]), "err", err)
			continue
		}
		if st.Index != snaps[i] {
			rec.CorruptSnapshots++
			logger.Warn("skipping snapshot whose name disagrees with its index",
				"path", snapshotPath(dir, snaps[i]), "index", st.Index, "named", snaps[i])
			continue
		}
		rec.Snapshot = st
		break
	}
	return nil
}

// ReadLatestSnapshot returns the newest structurally valid snapshot in
// dir without opening the directory for writing (nil when none exists) —
// the offline audit uses it to learn the contract the history was written
// under.
func ReadLatestSnapshot(dir string) (*State, error) {
	rec := &Recovery{}
	if err := loadLatestSnapshot(dir, rec, obs.NopLogger()); err != nil {
		return nil, err
	}
	return rec.Snapshot, nil
}

// Incarnation returns this boot's incarnation number (1 on first boot).
func (e *Engine) Incarnation() uint64 { return e.stats.Incarnation }

// appendedIndex returns the index of the last record appended (durable or
// not).
func (e *Engine) appendedIndex() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nextIndex - 1
}

// StatsSnapshot samples the engine's activity counters.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.AppendedIndex = e.nextIndex - 1
	st.DurableIndex = e.durable
	return st
}

// AppendEffects encodes one decided batch into the log buffer: one effect
// record per non-error result, in order. It returns the group-commit
// ticket — pass it to WaitDurable before releasing the batch's results to
// any client. Errored results mutate no controller state and are skipped.
func (e *Engine) AppendEffects(reqs []controller.Request, results []controller.BatchResult) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refusal(); err != nil {
		return 0, err
	}
	before := e.nextIndex
	for i, br := range results {
		if br.Err != nil {
			continue
		}
		e.appendRecord(Record{
			Type:    RecEffect,
			Node:    reqs[i].Node,
			Kind:    reqs[i].Kind,
			Child:   reqs[i].Child,
			Outcome: br.Grant.Outcome,
			Serial:  br.Grant.Serial,
			NewNode: br.Grant.NewNode,
		})
	}
	e.sinceSnap += int64(e.nextIndex - before)
	if e.nextIndex != before {
		e.appendCond.Signal()
	}
	return e.nextIndex - 1, nil
}

// refusal is why the engine takes no more appends: closed, or a write or
// fsync failed. Called with mu held.
func (e *Engine) refusal() error {
	if e.closed {
		return errClosed
	}
	return e.syncErr
}

// appendRecord packs r into the open block, opening one first if there is
// none, and closes the block once its packed bytes reach sealBytes, so an
// fsync-stall backlog never frames a block the reader would reject as
// oversized. Called with mu held.
func (e *Engine) appendRecord(r Record) {
	if e.open < 0 {
		e.open = len(e.buf)
		e.buf = openBlock(e.buf, e.nextIndex)
	}
	e.buf = appendPackedRecord(e.buf, r)
	e.nextIndex++
	e.stats.AppendedRecords++
	if len(e.buf)-e.open-blockPrefixLen >= sealBytes {
		e.closeOpen()
	}
}

// closeOpen closes the open block, if any. Called with mu held.
func (e *Engine) closeOpen() {
	if e.open >= 0 {
		closeBlock(e.buf, e.open, e.nextIndex)
		e.open = -1
	}
}

// WaitDurable blocks until every record up to ticket is fsynced (or the
// engine failed/closed). A zero ticket returns immediately.
func (e *Engine) WaitDurable(ticket uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.durable < ticket {
		if e.syncErr != nil {
			return e.syncErr
		}
		if e.closed {
			return errClosed
		}
		e.durableCond.Wait()
	}
	return e.syncErr
}

// CommitEffects is AppendEffects + WaitDurable: the synchronous write path
// used by serial drivers (the scenario engine), one fsync window per call.
func (e *Engine) CommitEffects(reqs []controller.Request, results []controller.BatchResult) error {
	ticket, err := e.AppendEffects(reqs, results)
	if err != nil {
		return err
	}
	return e.WaitDurable(ticket)
}

// syncLoop is the group-commit syncer: it owns the active segment file.
// Each wakeup waits out the commit window, closes the open block and takes
// every block appended since the last fsync, fills in their checksums,
// writes them as they are and fsyncs once — the fsync, the framing
// overhead and the checksum are all amortized over the wave.
func (e *Engine) syncLoop() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.buf) == 0 && !e.closed {
			e.appendCond.Wait()
		}
		pending := len(e.buf) > 0
		e.mu.Unlock()
		if pending {
			e.settle()
		}

		e.mu.Lock()
		if len(e.buf) == 0 || e.abandoned {
			// Closed with nothing left to flush, or abandoned: Abandon drops
			// buffered records deliberately — that is the kill -9 model.
			e.mu.Unlock()
			return
		}
		e.closeOpen()
		wave, target, count := e.buf, e.nextIndex-1, int(e.nextIndex-1-e.durable)
		e.buf, e.free = e.free[:0], nil
		e.mu.Unlock()

		checksumBlocks(wave)
		syncStart := time.Now()
		err := e.writeBatch(wave, target)
		if e.opts.SyncObserver != nil {
			e.opts.SyncObserver(count, time.Since(syncStart))
		}

		e.mu.Lock()
		if err != nil {
			e.syncErr = err
		} else {
			e.durable = target
			e.stats.Fsyncs++
			e.stats.BytesWritten += int64(len(wave))
		}
		e.free = wave[:0]
		e.durableCond.Broadcast()
		e.mu.Unlock()
		if err != nil {
			// Appends are refused from here on and Close reports err.
			return
		}
	}
}

// settle is the group-commit window: batches decided while an fsync is in
// flight coalesce naturally, but a batch decided just *after* a sync wave
// started would otherwise get a whole fsync to itself. It yields the
// scheduler until appends go quiet (or CommitWindow expires) so the server
// can finish deciding the batches already racing toward the log and one
// fsync covers them all. Yielding instead of sleeping matters: timer
// wakeups have ~millisecond granularity under load, several times the
// fsync itself.
func (e *Engine) settle() {
	if e.opts.CommitWindow <= 0 {
		return
	}
	deadline := time.Now().Add(e.opts.CommitWindow)
	last, idle := e.appendedIndex(), 0
	for idle < 4 && time.Now().Before(deadline) {
		runtime.Gosched()
		if cur := e.appendedIndex(); cur == last {
			idle++
		} else {
			last, idle = cur, 0
		}
	}
}

// writeBatch appends the framed blocks to the active segment, fsyncs, and
// rotates to a fresh segment when the size threshold is crossed; flushed
// names the last index in batch, so the new segment's header can name the
// index it starts at. Runs on the syncer goroutine only.
func (e *Engine) writeBatch(batch []byte, flushed uint64) error {
	if _, err := e.f.Write(batch); err != nil {
		return err
	}
	if err := datasync(e.f); err != nil {
		return err
	}
	e.fileSize += int64(len(batch))
	if e.fileSize < e.opts.SegmentBytes {
		return nil
	}
	err := e.f.Close()
	e.f = nil
	if err != nil {
		return err
	}
	// Only createSegment writes stats.Segments, and after Open only the
	// syncer calls it.
	return e.createSegment(uint64(e.stats.Segments)+1, flushed+1)
}

// createSegment makes segment seq, whose first record is WAL index first,
// the active segment: it writes the header and fsyncs the file and the
// directory, outside mu, so a crash leaves the segment whole or
// headerless.
func (e *Engine) createSegment(seq, first uint64) error {
	f, err := os.OpenFile(segmentPath(e.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	inc := e.stats.Incarnation
	hdr := segmentStamp(&inc, &first).bytes()
	if _, err = f.Write(hdr); err == nil {
		if err = f.Sync(); err == nil {
			err = syncDir(e.dir)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	e.f, e.fileSize = f, int64(len(hdr))
	e.mu.Lock()
	e.stats.Segments = int64(seq)
	e.mu.Unlock()
	return nil
}

// ShouldCheckpoint reports whether enough effects accumulated since the
// last snapshot and no checkpoint is in flight. A true return reserves the
// checkpoint slot — the caller must follow up with Checkpoint or
// CheckpointAsync (or the slot stays reserved).
func (e *Engine) ShouldCheckpoint() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.snapBusy || e.opts.SnapshotEvery <= 0 || e.sinceSnap < e.opts.SnapshotEvery {
		return false
	}
	e.snapBusy = true
	e.sinceSnap = 0
	return true
}

// Capture deep-copies the admission stack — the tree, the controller ctl
// over it and ctl's counters, run under the (m, w) contract — into the
// state a checkpoint writes, as of the last record appended. Must not be
// called while a submission is in flight.
func (e *Engine) Capture(m, w int64, tr *tree.Tree, ctl *controller.Dynamic) *State {
	return &State{
		Index:       e.appendedIndex(),
		Incarnation: e.Incarnation(),
		M:           m,
		W:           w,
		Tree:        tr.Snapshot(),
		Ctl:         ctl.State(),
		Counters:    ctl.Counters().Snapshot(),
	}
}

// CheckpointAsync encodes and writes the captured state in the background:
// Capture took the deep copy, so the engine only serializes it. Close waits
// for in-flight checkpoints.
func (e *Engine) CheckpointAsync(st *State) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if err := e.writeSnapshot(st); err != nil {
			e.opts.Logger.Warn("checkpoint failed", "index", st.Index, "err", err)
		}
		e.mu.Lock()
		e.snapBusy = false
		e.mu.Unlock()
	}()
}

// Checkpoint synchronously writes a snapshot of the captured state. Unlike
// CheckpointAsync it does not require a ShouldCheckpoint reservation.
func (e *Engine) Checkpoint(st *State) error {
	err := e.writeSnapshot(st)
	e.mu.Lock()
	e.snapBusy = false
	e.mu.Unlock()
	return err
}

func (e *Engine) writeSnapshot(st *State) error {
	e.mu.Lock()
	if e.abandoned {
		e.mu.Unlock()
		return errClosed
	}
	e.mu.Unlock()
	if st.Ctl.Policy != controller.PolicyChangesQuarter {
		return fmt.Errorf("persist: snapshot format %d carries only the changes-quarter driver, state has policy %d",
			snapshotFormat, st.Ctl.Policy)
	}
	buf := AppendState(nil, st)
	if err := writeFileAtomic(snapshotPath(e.dir, st.Index), buf); err != nil {
		return err
	}
	e.mu.Lock()
	e.stats.Snapshots++
	if st.Index > e.stats.LastSnapshotIndex {
		e.stats.LastSnapshotIndex = st.Index
	}
	e.mu.Unlock()
	// Retire everything but the two newest snapshots: the newest serves
	// recovery, the runner-up survives a corrupt newest. Segments are
	// retained in full — the cross-incarnation verifier reads the whole
	// effect history.
	snaps, err := listNumbered(e.dir, snapshotPrefix, snapshotSuffix, 16)
	if err != nil {
		return nil //nolint:nilerr // GC failure is not a checkpoint failure
	}
	for i := 0; i+2 < len(snaps); i++ {
		os.Remove(snapshotPath(e.dir, snaps[i]))
	}
	return nil
}

// Close flushes buffered records, waits for the syncer and any in-flight
// checkpoint, and closes the active segment. It returns the write or fsync
// error that stopped the syncer, if any, joined with the segment's close
// error. Idempotent: later calls return nil.
func (e *Engine) Close() error { return e.shutdown(false) }

// Abandon simulates a crash: buffered, un-fsynced records are dropped and
// the files are closed as-is — exactly the state a kill -9 leaves behind
// (modulo the kernel page cache). The scenario engine's crash-restart
// faults use it; production code calls Close.
func (e *Engine) Abandon() { e.shutdown(true) }

// shutdown is Close, or Abandon when abandon is set.
func (e *Engine) shutdown(abandon bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed = true
	if abandon {
		e.abandoned = true
		e.buf, e.open = nil, -1
	}
	e.appendCond.Signal()
	e.durableCond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	err := e.syncErr
	if e.f != nil {
		err = errors.Join(err, e.f.Close())
		e.f = nil
	}
	return err
}
