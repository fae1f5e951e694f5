package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	ctl "dynctrl/internal/controller"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func TestBuilders(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 64}, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 64 {
		t.Fatalf("balanced size = %d, want 64", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	trP, _ := tree.New()
	if err := tree.Build(trP, tree.Shape{Kind: "path", Nodes: 40}, 0); err != nil {
		t.Fatal(err)
	}
	if trP.Height() != 39 {
		t.Fatalf("path height = %d, want 39", trP.Height())
	}

	trS, _ := tree.New()
	if err := tree.Build(trS, tree.Shape{Kind: "star", Nodes: 40}, 0); err != nil {
		t.Fatal(err)
	}
	if trS.Height() != 1 {
		t.Fatalf("star height = %d, want 1", trS.Height())
	}
	if n, _ := trS.ChildCount(trS.Root()); n != 39 {
		t.Fatalf("star root degree = %d, want 39", n)
	}
}

func TestChurnProducesValidRequests(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 30}, 2); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.DefaultMix(), 3)
	for i := 0; i < 300; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("generator dried up at %d", i)
		}
		if !tr.Contains(req.Node) {
			t.Fatalf("request at missing node %d", req.Node)
		}
		switch req.Kind {
		case tree.RemoveLeaf:
			if !tr.IsLeaf(req.Node) || req.Node == tr.Root() {
				t.Fatal("invalid remove-leaf request")
			}
		case tree.RemoveInternal:
			if tr.IsLeaf(req.Node) || req.Node == tr.Root() {
				t.Fatal("invalid remove-internal request")
			}
		case tree.AddInternal:
			p, err := tr.Parent(req.Child)
			if err != nil || p != req.Node {
				t.Fatal("invalid add-internal request")
			}
		}
		// Apply additions/removals directly to keep the tree moving.
		switch req.Kind {
		case tree.AddLeaf:
			if _, err := tr.ApplyAddLeaf(req.Node); err != nil {
				t.Fatal(err)
			}
		case tree.RemoveLeaf:
			if err := tr.ApplyRemoveLeaf(req.Node); err != nil {
				t.Fatal(err)
			}
		case tree.AddInternal:
			if _, err := tr.ApplyAddInternal(req.Child); err != nil {
				t.Fatal(err)
			}
		case tree.RemoveInternal:
			if err := tr.ApplyRemoveInternal(req.Node); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnDeterministicForSeed(t *testing.T) {
	run := func() []ctl.Request {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 20}, 5); err != nil {
			t.Fatal(err)
		}
		gen := workload.NewChurn(tr, workload.EventOnlyMix(), 9)
		var out []ctl.Request
		for i := 0; i < 50; i++ {
			req, _ := gen.Next()
			out = append(out, req)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChurnTracePinned holds the request trace of one seed per mix against
// checksums computed when Churn listed the tree afresh for every request:
// the cached node list must pick the same nodes draw for draw, or every
// seeded scenario, golden and experiment table moves.
func TestChurnTracePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  workload.Mix
		want string
	}{
		{"events", workload.EventOnlyMix(), "9cbb22860cf688a91a5a3643858c37bff8bc6714245334c30f12ef7c56471d9e"},
		{"grow", workload.Mix{AddLeaf: 50, Event: 50}, "a1f0b92522a930b5cb1c70c39700dad22d0a414fe17d0a928b4960c7bc07acec"},
		{"churn", workload.DefaultMix(), "2a59c872a40b1e68f71aa68dd4117cf3753be7d31b446ccfc765e43335084ba7"},
		{"shrink", workload.ShrinkHeavyMix(), "1202de6ff716fd3af6bb2edc3fb05ff234236017a601da85acd912f4628d6ee9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 48}, 7); err != nil {
				t.Fatal(err)
			}
			gen := workload.NewChurn(tr, tc.mix, 11)
			gen.SetMinSize(8)
			h := sha256.New()
			for i := 0; i < 2000; i++ {
				req, ok := gen.Next()
				if !ok {
					t.Fatalf("generator dried up at %d", i)
				}
				if err := binary.Write(h, binary.LittleEndian, []int64{int64(req.Node), int64(req.Kind), int64(req.Child)}); err != nil {
					t.Fatal(err)
				}
				if _, err := ctl.ApplyChange(tr, req); err != nil {
					t.Fatalf("request %d (%+v): %v", i, req, err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("trace changed: sha256 %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestChurnFollowsRestore restores a different tree with the same change
// count under a generator whose node list is warm: the list must be dropped
// (a Restore moves tree.Generation, not tree.Changes), or the generator
// keeps naming nodes the restored tree never had.
func TestChurnFollowsRestore(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "star", Nodes: 40}, 0); err != nil { // ids 1..40 in 39 changes
		t.Fatal(err)
	}
	other, root := tree.New()
	var leaves []tree.NodeID
	for i := 0; i < 29; i++ {
		id, err := other.ApplyAddLeaf(root)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, id)
	}
	for _, id := range leaves[:10] {
		if err := other.ApplyRemoveLeaf(id); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Changes() != other.Changes() {
		t.Fatalf("setup: %d changes against %d", tr.Changes(), other.Changes())
	}
	gen := workload.NewChurn(tr, workload.EventOnlyMix(), 3)
	if _, ok := gen.Next(); !ok {
		t.Fatal("generator dried up")
	}
	if err := tr.Restore(other.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if req, ok := gen.Next(); !ok || !tr.Contains(req.Node) {
			t.Fatalf("request %d after the restore: %+v, ok %v: not a node of the restored tree", i, req, ok)
		}
	}
}

func TestMinSizeFloor(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 10}, 6); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(tr, workload.ShrinkHeavyMix(), 7)
	gen.SetMinSize(10)
	// At the floor, the generator must never emit removals.
	for i := 0; i < 100; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if req.Kind.IsRemoval() && tr.Size() <= 10 {
			t.Fatal("removal emitted at the size floor")
		}
	}
}

func TestRunDrivesSubmitter(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 16}, 8); err != nil {
		t.Fatal(err)
	}
	c := ctl.NewCore(tr, 64, 10, 2)
	gen := workload.NewChurn(tr, workload.EventOnlyMix(), 11)
	res, err := workload.Run(c, gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted > 10 {
		t.Fatalf("granted %d > M", res.Granted)
	}
	if res.Submitted == 0 {
		t.Fatal("nothing submitted")
	}
}

func TestDeepPathGenerator(t *testing.T) {
	tr, _ := tree.New()
	dp := workload.NewDeepPath(tr)
	c := ctl.NewCore(tr, 128, 64, 16)
	res, err := workload.Run(c, dp, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted != 50 {
		t.Fatalf("granted %d, want 50", res.Granted)
	}
	if tr.Height() != 50 {
		t.Fatalf("height = %d, want 50 (a path)", tr.Height())
	}
}

func TestHotspotGenerator(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 20}, 9); err != nil {
		t.Fatal(err)
	}
	pivot := tr.Root()
	h := workload.NewHotspot(tr, pivot, 90, 13)
	atPivot := 0
	for i := 0; i < 200; i++ {
		req, ok := h.Next()
		if !ok {
			t.Fatal("hotspot dried up")
		}
		if req.Node == pivot && req.Kind == tree.AddLeaf {
			atPivot++
		}
	}
	if atPivot < 100 {
		t.Fatalf("only %d/200 requests hit the hotspot; want most", atPivot)
	}
}
