package tree_test

import (
	"bytes"
	"errors"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
)

// TestAdditionPastTheLastIDIsRefused lowers the id limit to the last id a
// tree has handed out and asks for one more node every way there is: a leaf
// and an edge split through the unknown-U controller over both transports,
// by Submit and by SubmitBatch, and straight on the tree, as the callers
// without whiteboards (the trivial tail, the baselines) apply a change. Each
// is refused with tree.ErrNoIDLeft before anything moves: no permit is
// granted, and the encoded tree and controller state are the bytes they
// were. An event and a removal still go through.
func TestAdditionPastTheLastIDIsRefused(t *testing.T) {
	const m, w = 64, 16
	for _, tc := range []struct {
		name string
		tp   controller.Transport
	}{
		{"centralized", controller.Centralized},
		{"distributed", dist.Over(sim.NewDeterministic(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, root := tree.New()
			if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 16}, 1); err != nil {
				t.Fatal(err)
			}
			d := tc.tp.NewDynamic(tr, m, w)
			submit := func(req controller.Request) controller.Grant {
				t.Helper()
				g, err := d.Submit(req)
				if err != nil || g.Outcome != controller.Granted {
					t.Fatalf("%+v: %+v, %v before the limit", req, g, err)
				}
				return g
			}
			for _, id := range tr.Nodes() {
				submit(controller.Request{Node: id})
			}
			leaf := submit(controller.Request{Node: root, Kind: tree.AddLeaf}).NewNode
			defer tree.SetIDLimit(tree.NodeID(tr.EverExisted()))()

			encode := func() []byte {
				return persist.AppendState(nil, &persist.State{M: m, W: w, Tree: tr.Snapshot(), Ctl: d.State(),
					Counters: d.Counters().Snapshot()})
			}
			before, granted := encode(), d.Granted()
			adds := []controller.Request{
				{Node: leaf, Kind: tree.AddLeaf},
				{Node: root, Kind: tree.AddInternal, Child: leaf},
			}
			for _, req := range adds {
				if g, err := d.Submit(req); !errors.Is(err, tree.ErrNoIDLeft) || g != (controller.Grant{}) {
					t.Errorf("Submit(%+v) = %+v, %v; want no grant and ErrNoIDLeft", req, g, err)
				}
			}
			for i, r := range d.SubmitBatch(adds, nil) {
				if !errors.Is(r.Err, tree.ErrNoIDLeft) || r.Grant != (controller.Grant{}) {
					t.Errorf("SubmitBatch answered %+v with %+v, %v; want no grant and ErrNoIDLeft", adds[i], r.Grant, r.Err)
				}
			}
			if _, err := tr.ApplyAddLeaf(leaf); !errors.Is(err, tree.ErrNoIDLeft) {
				t.Errorf("ApplyAddLeaf past the limit: %v, want ErrNoIDLeft", err)
			}
			if _, err := tr.ApplyAddInternal(leaf); !errors.Is(err, tree.ErrNoIDLeft) {
				t.Errorf("ApplyAddInternal past the limit: %v, want ErrNoIDLeft", err)
			}
			if d.Granted() != granted {
				t.Errorf("%d permits granted before the refused additions, %d after", granted, d.Granted())
			}
			if after := encode(); !bytes.Equal(before, after) {
				t.Errorf("the refused additions changed the encoded state: %d bytes before, %d after", len(before), len(after))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}

			submit(controller.Request{Node: leaf})
			submit(controller.Request{Node: leaf, Kind: tree.RemoveLeaf})
		})
	}
}

// TestRestorePastTheLastIDIsRefused holds Restore to the same limit: a
// snapshot whose ids run past the last id the tree hands out is refused, and
// the tree is left as it was.
func TestRestorePastTheLastIDIsRefused(t *testing.T) {
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: 8}, 1); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	other, _ := tree.New()
	defer tree.SetIDLimit(tree.NodeID(tr.EverExisted() - 1))()
	if err := other.Restore(snap); !errors.Is(err, tree.ErrNoIDLeft) || other.Size() != 1 {
		t.Fatalf("Restore of ids up to %d past the limit: %v, %d nodes; want ErrNoIDLeft and the bare root", tr.EverExisted(), err, other.Size())
	}
}
