package persist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// TestSnapshotEncodingPinned holds the snapshot bytes of deterministic
// mid-run states against checksums: a refactor must not move the bytes on
// disk, nor what the engine leaves in them. A deliberate format change bumps
// snapshotFormat and replaces the constants. The current ones are format
// 2's, which dropped the port words of format 1; the format-1 bytes of the
// churn state, decoded and encoded again, give the format-2 constant. The
// churn and trivial-tail rows run the message-passing engine; the
// centralized rows run the daemon's, over the traffic generator, over a
// growing tree whose slow path funds at the root, and over a path whose
// fillers sit at level 1 and above, so packages split at drop points.
func TestSnapshotEncodingPinned(t *testing.T) {
	capture := func(tr *tree.Tree, ctl *controller.Dynamic, index uint64, m, w int64) string {
		sum := sha256.Sum256(persist.AppendState(nil, &persist.State{
			Index: index, Incarnation: 3, M: m, W: w,
			Tree: tr.Snapshot(), Ctl: ctl.State(), Counters: ctl.Counters().Snapshot(),
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
		const want = "2a6914acd56c92329e95c04a5b34826656760f95f5d45a5fabf49a781dd52d4c"
		if got := capture(s.tr, s.ctl, 1500, testM, testW); got != want {
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
		ctl := dist.Over(rt).NewDynamic(tr, m, 0)
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
		const want = "4e5ffe4dc7da53ed0d7987938d0ddc046bf2b4bacc05e63824204aa17f7fd330"
		if got := capture(tr, ctl, uint64(n), m, 0); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})

	t.Run("centralized-churn", func(t *testing.T) {
		s := newStack(t, centralized, 5)
		g := newTrafficGen(s.tr.Root(), 5)
		runLogged(t, s, g, nil, 1500)
		st := s.ctl.State()
		if st.Iterations < 2 || len(st.Inner.Board.Stores) < 8 {
			t.Fatalf("state too plain to pin: %d iterations, %d stores", st.Iterations, len(st.Inner.Board.Stores))
		}
		const want = "1bfd42c217a51e7691cfff8273a00156a80b405516961196813f55e1578d0288"
		if got := capture(s.tr, s.ctl, 1500, testM, testW); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})

	t.Run("centralized-grow", func(t *testing.T) {
		// grow-mix in small: requests at nodes of the initial tree, half
		// of them adding a leaf there.
		const m, w, n = 6_000, 3_000, 3000
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 64}, 1); err != nil {
			t.Fatal(err)
		}
		initial := tr.Nodes()
		ctl := controller.Centralized.NewDynamic(tr, m, w)
		rng := rand.New(rand.NewSource(3))
		funded := 0
		for i := 0; i < n; i++ {
			req := controller.Request{Node: initial[rng.Intn(len(initial))], Kind: tree.None}
			if rng.Intn(2) == 0 {
				req.Kind = tree.AddLeaf
			}
			before := ctl.State()
			if _, err := ctl.Submit(req); err != nil {
				t.Fatal(err)
			}
			if after := ctl.State(); after.Iterations == before.Iterations &&
				after.Inner.Iterations == before.Inner.Iterations &&
				after.Inner.Board.Storage < before.Inner.Board.Storage {
				funded++
			}
		}
		if funded < n/2 {
			t.Fatalf("%d of %d requests funded a package at the root; the row should be mostly those", funded, n)
		}
		const want = "63869d8e3b202ab7f3ce0e445028a6ddc727b0e5498ae9a1cf30220d96dcb888"
		if got := capture(tr, ctl, n, m, w); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})

	t.Run("centralized-path", func(t *testing.T) {
		// Events at the lower half of a path of 600: the root funds
		// packages of level 3, and later requests split the ones their
		// drop points left.
		const m, w, n, depth = 1 << 16, 1 << 12, 2000, 600
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: depth}, 0); err != nil {
			t.Fatal(err)
		}
		nodes := tr.Nodes()
		ctl := controller.Centralized.NewDynamic(tr, m, w)
		rng := rand.New(rand.NewSource(4))
		split := 0
		for i := 0; i < n; i++ {
			req := controller.Request{Node: nodes[depth/2+rng.Intn(depth/2)], Kind: tree.None}
			before := mobileLevels(ctl.State())
			if _, err := ctl.Submit(req); err != nil {
				t.Fatal(err)
			}
			// A filler of level k ≥ 1 leaves the stores one fewer
			// package of its level and one more of every level below.
			after := mobileLevels(ctl.State())
			for k := 1; k < len(after); k++ {
				if after[k] == before[k]-1 {
					split++
				}
			}
		}
		if split < n/25 {
			t.Fatalf("%d of %d requests split a filler of level 1 or more; the row should take drop points", split, n)
		}
		const want = "6048c8896b4b5b2077725f88758f6b5af69f281fbeccb876f49374cfb9937661"
		if got := capture(tr, ctl, n, m, w); got != want {
			t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, want)
		}
	})
}

// mobileLevels counts the mobile packages of each level in the stores of
// the controller's current whiteboards.
func mobileLevels(st *controller.DynamicState) [64]int {
	var n [64]int
	for _, ns := range st.Inner.Board.Stores {
		for _, pk := range ns.Store.Mobiles {
			n[pk.Level]++
		}
	}
	return n
}
