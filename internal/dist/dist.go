// Package dist is the message-passing transport of the distributed
// (M,W)-Controller of Section 4 of the paper. The whiteboards, the
// waste-halving iteration, the terminating transformation and the unknown-U
// driver live in package controller, written once; this package supplies
// the fixed-U core that moves their packages as messages over a
// sim.Runtime, so that the cost measure is message complexity instead of
// move complexity, and Over, the controller.Transport that plugs it in.
// Everything above the drivers names this engine only as dist.Over(rt).
//
// The translation follows the paper's simulation (Lemma 4.5 / Theorem 4.7):
//
//   - A request at node u starts an agent that climbs the path toward the
//     root, one message per hop, looking for the closest filler node — an
//     ancestor holding a mobile package whose level qualifies for the hop
//     distance traveled (Section 3.1, item 3).
//   - The qualifying package (or a fresh one funded from the root storage)
//     then descends back along the same path, one message per tree edge,
//     splitting at the drop points u_k exactly as procedure Proc prescribes;
//     a static package reaches u and one permit is granted.
//   - Rejects flood the tree as a broadcast wave (one message per edge), and
//     graceful deletions push a node's packages to its parent in one message
//     — both matching the centralized move accounting one for one.
//
// Since the climb to a filler never exceeds the descent it triggers, the
// delivered message count stays within a constant factor of the centralized
// move count on the same trace; the engine-equivalence table in
// dist_test.go replays identical traces through both execution models and
// checks precisely that, together with bitwise-identical grant/reject
// sequences and driver states.
//
// Costs that the full protocol pays in broadcast/upcast phases the
// simulation cannot route through the transport (iteration restarts,
// termination detection, the N_i count of the unknown-U controller) are
// accounted in the stats.CounterControl tally; the transport's Cost adds the
// two.
package dist

import (
	"sync"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Over returns the message-passing execution model over rt: fixed-U cores
// that move packages as messages, driver-level broadcasts charged as
// control messages, and iteration restarts that cost a broadcast/upcast.
func Over(rt sim.Runtime) controller.Transport {
	return controller.Transport{
		Attach: func(wb *controller.Whiteboard) controller.Submitter {
			return &Core{Whiteboard: wb, rt: rt}
		},
		Counter:      stats.CounterControl,
		RestartCosts: true,
		Delivered:    rt.Messages,
	}
}

// The three names below are what bench/rungs.go compiles against; nothing
// under bench/ may change with the engine, so they keep their signatures.
// Everyone else builds Over(rt).NewDynamic and reads Over(rt).Cost.

// TotalMessages returns the total message complexity spent so far: messages
// delivered by the transport plus accounted control messages.
func TotalMessages(rt sim.Runtime, counters *stats.Counters) int64 {
	return Over(rt).Cost(counters)
}

// Dynamic is controller.Dynamic over this package's transport (the paper's
// headline Theorem 4.9) together with the runtime it runs over.
type Dynamic struct {
	*controller.Dynamic
	rt sim.Runtime
}

// NewDynamic builds a distributed unknown-U (m, w)-Controller over tr. When
// terminating is true the controller returns controller.ErrTerminated on
// exhaustion instead of rejecting. counters may be nil.
func NewDynamic(tr *tree.Tree, rt sim.Runtime, m, w int64, terminating bool, counters *stats.Counters) *Dynamic {
	opts := []controller.DynamicOption{controller.WithDynamicCounters(counters)}
	if terminating {
		opts = append(opts, controller.DynamicTerminating())
	}
	return &Dynamic{Dynamic: Over(rt).NewDynamic(tr, m, w, opts...), rt: rt}
}

// Runtime returns the message transport the controller runs over.
func (d *Dynamic) Runtime() sim.Runtime { return d.rt }

// Message payloads of the distributed controller. All protocol state beyond
// the per-node whiteboards (package stores) travels inside these envelopes.

// searchUp climbs from the requesting node toward the root looking for the
// closest filler node. Envelopes are pooled: the protocol re-sends the same
// object hop after hop (exactly one copy is ever in flight per request) and
// releases it when the climb ends.
type searchUp struct {
	origin tree.NodeID // requesting node u
	dist   int64       // hops traveled so far (distance of the receiver from u)
}

// descend carries a mobile package downward along the recorded search path,
// one hop per message. path[0] is the node the package was found at (or the
// root), path[len(path)-1] is the requesting node; idx is the index of the
// receiving node. Like searchUp, descend envelopes (and their path buffers)
// are pooled and reused across hops and requests.
type descend struct {
	pkg  pkgstore.Package
	path []tree.NodeID
	idx  int
}

var searchUpPool = sync.Pool{New: func() any { return new(searchUp) }}

var descendPool = sync.Pool{New: func() any { return new(descend) }}

func putSearchUp(pl *searchUp) { searchUpPool.Put(pl) }

func putDescend(pl *descend) {
	pl.pkg = pkgstore.Package{}
	pl.path = pl.path[:0]
	descendPool.Put(pl)
}

// rejectFlood broadcasts the reject wave: every receiving node stores a
// reject package and forwards the wave to its children.
type rejectFlood struct{}

// transfer moves a gracefully deleted node's packages to its parent in one
// message (item 2 of Protocol GrantOrReject).
type transfer struct {
	packages  []pkgstore.Package
	hadReject bool
}
