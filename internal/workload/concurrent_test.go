package workload

import (
	"reflect"
	"testing"

	"dynctrl/internal/tree"
)

func concurrentTestTree(t *testing.T) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: 32}, 7); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestConcurrentTraceDeterminism regenerates the same trace twice (and over
// a structurally identical tree) and requires bit-identical output: the
// benchmark harness depends on the pinned workload being reproducible.
func TestConcurrentTraceDeterminism(t *testing.T) {
	trA := concurrentTestTree(t)
	trB := concurrentTestTree(t)
	a1, err := NewConcurrentTrace(trA, 5, 200, EventHeavyConcurrentMix(), 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewConcurrentTrace(trA, 5, 200, EventHeavyConcurrentMix(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConcurrentTrace(trB, 5, 200, EventHeavyConcurrentMix(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same tree, same seed: traces differ")
	}
	if !reflect.DeepEqual(a1, b) {
		t.Fatal("identical trees, same seed: traces differ")
	}
	other, err := NewConcurrentTrace(trA, 5, 200, EventHeavyConcurrentMix(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1, other) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestConcurrentTraceClientPrefixStability checks that a client's stream
// does not depend on how many other clients exist, so scaling the client
// count preserves the per-client workloads.
func TestConcurrentTraceClientPrefixStability(t *testing.T) {
	tr := concurrentTestTree(t)
	small, err := NewConcurrentTrace(tr, 2, 50, EventOnlyConcurrentMix(), 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewConcurrentTrace(tr, 6, 50, EventOnlyConcurrentMix(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Clients {
		if !reflect.DeepEqual(small.Clients[i], large.Clients[i]) {
			t.Fatalf("client %d trace changed when client count grew", i)
		}
	}
}

// TestConcurrentTraceValidity checks that every request targets a snapshot
// node with an interleaving-safe kind, and that Serial interleaves
// round-robin.
func TestConcurrentTraceValidity(t *testing.T) {
	tr := concurrentTestTree(t)
	snapshot := make(map[tree.NodeID]bool)
	for _, id := range tr.Nodes() {
		snapshot[id] = true
	}
	ct, err := NewConcurrentTrace(tr, 3, 40, EventHeavyConcurrentMix(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.Len(); got != 120 {
		t.Fatalf("trace length %d, want 120", got)
	}
	for ci, reqs := range ct.Clients {
		for i, req := range reqs {
			if !snapshot[req.Node] {
				t.Fatalf("client %d request %d targets non-snapshot node %d", ci, i, req.Node)
			}
			if req.Kind != tree.None && req.Kind != tree.AddLeaf {
				t.Fatalf("client %d request %d has unsafe kind %v", ci, i, req.Kind)
			}
		}
	}
	serial := ct.Serial()
	if len(serial) != ct.Len() {
		t.Fatalf("serial length %d, want %d", len(serial), ct.Len())
	}
	for j := 0; j < 40; j++ {
		for c := 0; c < 3; c++ {
			if serial[j*3+c] != ct.Clients[c][j] {
				t.Fatalf("serial[%d] is not client %d's request %d", j*3+c, c, j)
			}
		}
	}
	if _, err := NewConcurrentTrace(tr, 0, 10, EventOnlyConcurrentMix(), 1); err == nil {
		t.Fatal("zero clients: want error")
	}
	if _, err := NewConcurrentTrace(tr, 1, 10, ConcurrentMix{}, 1); err == nil {
		t.Fatal("empty mix: want error")
	}
}
