package workload

import (
	"fmt"

	"dynctrl/internal/tree"
)

// This file projects the scenario catalog onto the network boundary. A
// load generator on the far side of a socket cannot consult the server's
// live tree, so a wire run is built from the deterministic half of a
// scenario: both sides construct the identical initial topology from
// (tree.Shape, seed) — node ids are allocation-order deterministic — and
// the client pre-generates an interleaving-safe concurrent trace over that
// snapshot (events and leaf additions under snapshot nodes, the vocabulary
// of concurrent.go, which stays valid under every delivery order). The
// tree signature exchanged in the wire handshake catches the one way
// this can silently go wrong: the two sides building different trees.

// The three names below are what bench/ compiles against; nothing under
// bench/ may change with this package, so they keep their signatures.
// Everyone else names a tree.Shape, builds it with tree.Build and reads
// (*tree.Tree).Signature.

// TopologySpec is tree.Shape.
type TopologySpec = tree.Shape

// BuildTopology builds spec in tr; see tree.Build.
func BuildTopology(tr *tree.Tree, spec TopologySpec, seed int64) error {
	return tree.Build(tr, spec, seed)
}

// TopologySignature returns tr.Signature().
func TopologySignature(tr *tree.Tree) uint64 { return tr.Signature() }

// wireMix projects a scenario's workload onto the interleaving-safe
// concurrent vocabulary: additions (leaf or internal) become snapshot leaf
// additions, everything else — events and the removals that cannot be
// replayed safely from a remote snapshot — becomes a non-topological event.
// The event/growth ratio of the original mix is preserved.
func wireMix(spec WorkloadSpec) (ConcurrentMix, error) {
	switch spec.Kind {
	case "churn":
		mix, err := MixByName(spec.Mix)
		if err != nil {
			return ConcurrentMix{}, err
		}
		return ConcurrentMix{
			Event:   mix.Event + mix.RemoveLeaf + mix.RemoveInternal,
			AddLeaf: mix.AddLeaf + mix.AddInternal,
		}, nil
	case "hotspot", "deeppath":
		// Request-location workloads; over the wire their requests are
		// events over the snapshot.
		return EventOnlyConcurrentMix(), nil
	default:
		return ConcurrentMix{}, fmt.Errorf("workload: unknown workload %q", spec.Kind)
	}
}

// WireTrace builds the client half of a scenario run over the wire: the
// reconstructed initial tree (for signature verification) and a
// deterministic concurrent trace of total requests partitioned across conns
// connections. The same (scenario, conns, total, seed) always yields the
// identical trace; total <= 0 uses the scenario's pinned request count.
func WireTrace(sc Scenario, conns, total int, seed int64) (*tree.Tree, *ConcurrentTrace, error) {
	if conns < 1 {
		return nil, nil, fmt.Errorf("workload: need at least 1 connection, got %d", conns)
	}
	if total <= 0 {
		total = sc.Requests
	}
	tr, _ := tree.New()
	if err := tree.Build(tr, sc.Topology, seed); err != nil {
		return nil, nil, err
	}
	mix, err := wireMix(sc.Workload)
	if err != nil {
		return nil, nil, err
	}
	perConn := (total + conns - 1) / conns
	ct, err := NewConcurrentTrace(tr, conns, perConn, mix, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return tr, ct, nil
}
