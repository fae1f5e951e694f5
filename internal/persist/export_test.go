package persist

import "os"

// RestoreInto is the first half of Recover: the tree restored in place to
// a snapshot's and the snapshot's counters, so a test can look at them
// before the controller is rebuilt.
var RestoreInto = restoreInto

// SegmentHeaderLen is the byte length of a segment header, so tests can
// walk a segment's blocks.
var SegmentHeaderLen = segmentStamp(nil, nil).len()

// SetSealBytesForTests shrinks the block seal threshold so tests can force
// multi-block waves without gigabyte buffers. It returns a restore func.
func SetSealBytesForTests(n int) (restore func()) {
	old := sealBytes
	sealBytes = n
	return func() { sealBytes = old }
}

// SwapSegmentForTests makes f the active segment and returns the one it
// replaces, so a test can make the next write fail. Call it before the
// first append, while the syncer is idle.
func (e *Engine) SwapSegmentForTests(f *os.File) *os.File {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.f
	e.f = f
	return old
}
