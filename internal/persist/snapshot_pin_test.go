package persist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// TestSnapshotEncodingPinned holds the snapshot bytes of two deterministic
// mid-run states against checksums computed before the driver stack moved
// from internal/dist to internal/controller: format 1 on disk must not
// notice which package declares the state types. A deliberate format change
// bumps snapshotFormat and replaces the constants.
func TestSnapshotEncodingPinned(t *testing.T) {
	capture := func(tr *tree.Tree, ctl *controller.Dynamic, counters *stats.Counters, index uint64, m, w int64) string {
		sum := sha256.Sum256(persist.AppendState(nil, &persist.State{
			Index: index, Incarnation: 3, M: m, W: w,
			Tree: tr.Snapshot(), Ctl: ctl.State(), Counters: counters.Snapshot(),
		}))
		return hex.EncodeToString(sum[:])
	}

	t.Run("churn", func(t *testing.T) {
		// The distributed engine: the constants were computed over it, and
		// the counters it charges are part of the bytes.
		s := newStack(t, distributed, 5)
		g := newTrafficGen(s.tr.Root(), 5)
		runLogged(t, s, g, nil, 1500)
		st := s.ctl.State()
		if st.Iterations < 2 || len(st.Inner.Board.Stores) < 8 {
			t.Fatalf("state too plain to pin: %d iterations, %d stores", st.Iterations, len(st.Inner.Board.Stores))
		}
		const want = "0e7f099302a34d63c6053c5107bdfd42a96cec94258cce021ae2fbee23b41ff5"
		if got := capture(s.tr, s.ctl, s.counters, 1500, testM, testW); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})

	t.Run("trivial-tail", func(t *testing.T) {
		const m, depth = 600, 24
		tr, at := tree.New()
		var path []tree.NodeID // top-down, the root left out
		for i := 0; i < depth; i++ {
			id, err := tr.ApplyAddLeaf(at)
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, id)
			at = id
		}
		rt, err := sim.NewRuntime("random", 9)
		if err != nil {
			t.Fatal(err)
		}
		counters := stats.NewCounters()
		ctl := dist.Over(rt).NewDynamic(tr, m, 0, controller.WithDynamicCounters(counters))
		n := 0
		submit := func(at tree.NodeID) {
			t.Helper()
			if _, err := ctl.Submit(controller.Request{Node: at, Kind: tree.None}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		// Events spread over the upper path strand static packages there, so
		// the W = 0 iteration exhausts with permits left for the tail.
		for i := 0; i < 20; i++ {
			submit(path[i%(depth/2)])
		}
		for !ctl.State().Inner.TrivialPhase {
			if n > 2*m {
				t.Fatal("the W = 0 tail never started")
			}
			submit(path[depth-1])
		}
		for i := 0; i < 3; i++ {
			submit(path[depth-1])
		}
		const want = "384cb97620b14d4245a12d346d9b3497801a153df8d3e40f02f66c873d931143"
		if got := capture(tr, ctl, counters, uint64(n), m, 0); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})
}
