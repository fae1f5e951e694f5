// Package dist is the message-passing transport of the distributed
// (M,W)-Controller of Section 4 of the paper. The whiteboards, the
// waste-halving iteration, the terminating transformation and the unknown-U
// driver live in package controller, written once; this package supplies
// the fixed-U core that moves their packages as messages over a
// sim.Runtime, so that the cost measure is message complexity instead of
// move complexity, and the constructors that plug it in.
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
// accounted in the CounterControl tally; TotalMessages adds the two.
package dist

import (
	"sync"

	"dynctrl/internal/controller"
	"dynctrl/internal/pkgstore"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// ErrTerminated is returned by terminating controllers after termination.
// It aliases controller.ErrTerminated so errors.Is works across layers.
var ErrTerminated = controller.ErrTerminated

// CounterControl names the stats counter accumulating control-plane
// messages: broadcast/upcast phases that the message transport does not
// carry explicitly (iteration bookkeeping, termination detection, DFS
// relabelings of the applications).
const CounterControl = stats.CounterControl

// TotalMessages returns the total message complexity spent so far: messages
// delivered by the transport plus accounted control messages.
func TotalMessages(rt sim.Runtime, counters *stats.Counters) int64 {
	return rt.Messages() + counters.Get(CounterControl)
}

// over returns the message-passing execution model over rt: fixed-U cores
// that move packages as messages, driver-level broadcasts charged as
// control messages, and iteration restarts that cost a broadcast/upcast.
func over(rt sim.Runtime) controller.Transport {
	return controller.Transport{
		Attach: func(wb *controller.Whiteboard) controller.Submitter {
			return &Core{Whiteboard: wb, rt: rt}
		},
		Counter:      CounterControl,
		RestartCosts: true,
	}
}

// Iterated is the waste-halving (M,W)-Controller (Observation 3.4) and
// Terminating the terminating transformation (Observation 2.1); over this
// package's transport their cost is Theorem 4.7's message complexity.
type (
	Iterated    = controller.Iterated
	Terminating = controller.Terminating
)

// NewIterated builds the distributed waste-halving (m, w)-Controller over
// tr with the fixed node bound u. When terminating is true the driver
// returns ErrTerminated on exhaustion instead of rejecting. counters may be
// nil.
func NewIterated(tr *tree.Tree, rt sim.Runtime, u, m, w int64, terminating bool, counters *stats.Counters) *Iterated {
	opts := []controller.IteratedOption{controller.WithIteratedCounters(counters)}
	if terminating {
		opts = append(opts, controller.AsTerminating())
	}
	return over(rt).NewIterated(tr, u, m, w, opts...)
}

// NewTerminating builds a terminating distributed (m,w)-Controller over tr
// with the fixed bound u, accounting costs into counters (which may be
// nil).
func NewTerminating(tr *tree.Tree, rt sim.Runtime, u, m, w int64, counters *stats.Counters, opts ...CoreOption) *Terminating {
	opts = append(opts, WithNoRejects())
	if counters != nil {
		opts = append(opts, WithCounters(counters))
	}
	core := NewCore(tr, rt, u, m, w, opts...)
	return over(rt).Terminating(core, core.Whiteboard)
}

// Dynamic is the distributed (M,W)-Controller for the general case where no
// bound U on the number of nodes ever to exist is known in advance — the
// paper's headline construction (Theorem 4.9): controller.Dynamic over this
// package's transport, plus the runtime it runs over. Message complexity:
// O(n₀log²n₀·log(M/(W+1)) + Σ_j log²n_j·log(M/(W+1))).
type Dynamic struct {
	*controller.Dynamic
	rt sim.Runtime
}

// NewDynamic builds a distributed unknown-U (m, w)-Controller over tr. When
// terminating is true the controller returns ErrTerminated on exhaustion
// instead of rejecting. counters may be nil.
func NewDynamic(tr *tree.Tree, rt sim.Runtime, m, w int64, terminating bool, counters *stats.Counters) *Dynamic {
	opts := []controller.DynamicOption{controller.WithDynamicCounters(counters)}
	if terminating {
		opts = append(opts, controller.DynamicTerminating())
	}
	return &Dynamic{Dynamic: over(rt).NewDynamic(tr, m, w, opts...), rt: rt}
}

// RestoreDynamic rebuilds an unknown-U controller from captured state over
// tr, moving messages through rt and accounting into counters. The caller
// restores tr and counters to their captured states first; the returned
// controller then continues exactly where the captured one stopped.
func RestoreDynamic(tr *tree.Tree, rt sim.Runtime, st *controller.DynamicState, counters *stats.Counters) (*Dynamic, error) {
	d, err := over(rt).RestoreDynamic(tr, st, counters)
	if err != nil {
		return nil, err
	}
	return &Dynamic{Dynamic: d, rt: rt}, nil
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
	pkg  *pkgstore.Package
	path []tree.NodeID
	idx  int
}

var searchUpPool = sync.Pool{New: func() any { return new(searchUp) }}

var descendPool = sync.Pool{New: func() any { return new(descend) }}

func putSearchUp(pl *searchUp) { searchUpPool.Put(pl) }

func putDescend(pl *descend) {
	pl.pkg = nil
	pl.path = pl.path[:0]
	descendPool.Put(pl)
}

// rejectFlood broadcasts the reject wave: every receiving node stores a
// reject package and forwards the wave to its children.
type rejectFlood struct{}

// transfer moves a gracefully deleted node's packages to its parent in one
// message (item 2 of Protocol GrantOrReject).
type transfer struct {
	packages  []*pkgstore.Package
	hadReject bool
}
