// The hostile-network scenario family: declarative specs pairing a
// concurrent wire workload with a deterministic faultnet schedule, so the
// connection lifecycle of the daemon and its client is exercised under
// partitions, mid-batch kills, slow-loris peers and duplicated replies —
// with the fault schedule reproducible from (scenario, seed) alone. The
// e2e harness that runs these against a live server lives with
// internal/server's tests (it needs the server's crash hook); the specs
// live here, outside package workload, because they name faultnet rules and
// the daemon that imports workload must not link the fault proxy.
package scenario

import (
	"fmt"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/faultnet"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// Hostile describes one hostile-network run: Conns connections
// are dialed sequentially through a faultnet proxy (so connection
// ordinals equal dial order and the fault schedule is deterministic),
// each drives its slice of a NewConcurrentTrace in Chunk-sized
// SubmitMany runs, and the proxy injects Faults. The oracle contract for
// every scenario: at-most-once grant semantics (client-observed grants
// never exceed server-executed grants, which never exceed M) and exact
// server-side accounting that reconciles with /metricsz and the WAL.
type Hostile struct {
	Name  string
	Notes string

	// Topology, M, W and Mix pin the tenant contract and the trace, as in
	// the main scenario catalog.
	Topology workload.TopologySpec
	M, W     int64
	Mix      workload.ConcurrentMix

	// Conns connections each submit PerConn requests in Chunk-sized runs.
	Conns   int
	PerConn int
	Chunk   int

	// Seed derives the trace and the fault schedule.
	Seed int64

	// Faults is the faultnet schedule applied between client and server.
	Faults []faultnet.Rule

	// IdleTimeout and HandshakeTimeout configure the server's read
	// deadlines (zero keeps the server defaults); WriteTimeout configures
	// the client's write deadline (zero keeps the client default).
	IdleTimeout      time.Duration
	HandshakeTimeout time.Duration
	WriteTimeout     time.Duration

	// WAL runs the server durable, and the harness crashes + recovers it
	// from disk after the faulted phase before reconciling.
	WAL bool

	// Recover makes the harness reconnect to the server directly
	// (bypassing the proxy) after the faulted phase and resubmit each
	// connection's unanswered remainder — the retrying-application model;
	// at-most-once still bounds what the *client observes* per call.
	Recover bool

	// ExpectDialFaults is how many of the initial dials are allowed (and
	// expected) to fail because the schedule attacks the handshake.
	ExpectDialFaults int
}

// HostileCatalog returns the hostile-network scenario family.
func HostileCatalog() []Hostile {
	return []Hostile{
		{
			Name: "partition-during-reject-wave",
			Notes: "tight permit budget; every connection is partitioned mid-run while the reject wave floods," +
				" then the clients reconnect and must see a coherent, final wave",
			Topology: workload.TopologySpec{Kind: "balanced", Nodes: 48},
			M:        120, W: 60,
			Mix:   workload.EventOnlyConcurrentMix(),
			Conns: 4, PerConn: 200, Chunk: 16,
			Seed: 7,
			Faults: []faultnet.Rule{
				// c2s frame 0 is the Hello; frames 1.. are Submit frames. A
				// kill at frame 8 lands mid-trace on every connection, after
				// the 120-permit budget is gone and rejects are flowing.
				{Kind: faultnet.Kill, Dir: faultnet.ClientToServer, Conn: -1, Frame: 8},
			},
			Recover: true,
		},
		{
			Name: "kill-mid-batch",
			Notes: "one connection loses its socket between Submit frames, another mid-frame; the server is then" +
				" crashed and recovered from WAL, and the on-disk history must account every grant exactly once",
			Topology: workload.TopologySpec{Kind: "balanced", Nodes: 32},
			M:        1 << 20, W: 1 << 19,
			Mix:   workload.EventHeavyConcurrentMix(),
			Conns: 4, PerConn: 256, Chunk: 32,
			Seed: 11,
			Faults: []faultnet.Rule{
				{Kind: faultnet.KillMidFrame, Dir: faultnet.ClientToServer, Conn: 1, Frame: 3},
				{Kind: faultnet.Kill, Dir: faultnet.ClientToServer, Conn: 2, Frame: 5},
			},
			WAL:     true,
			Recover: true,
		},
		{
			Name: "slow-loris-handshake",
			Notes: "one peer dribbles its Hello byte by byte and another dribbles a Submit frame; the server's" +
				" handshake and idle deadlines must reap both instead of parking goroutines forever",
			Topology: workload.TopologySpec{Kind: "balanced", Nodes: 32},
			M:        1 << 20, W: 1 << 19,
			Mix:   workload.EventOnlyConcurrentMix(),
			Conns: 4, PerConn: 128, Chunk: 16,
			Seed: 13,
			Faults: []faultnet.Rule{
				// Conn 0: the Hello itself dribbles slower than the server's
				// handshake deadline allows.
				{Kind: faultnet.SlowLoris, Dir: faultnet.ClientToServer, Conn: 0, Frame: 0,
					Delay: 100 * time.Millisecond, Chunk: 1},
				// Conn 1: the handshake is clean, then a Submit frame
				// dribbles slower than the idle deadline allows.
				{Kind: faultnet.SlowLoris, Dir: faultnet.ClientToServer, Conn: 1, Frame: 2,
					Delay: 150 * time.Millisecond, Chunk: 1},
			},
			IdleTimeout:      250 * time.Millisecond,
			HandshakeTimeout: 500 * time.Millisecond,
			Recover:          true,
			ExpectDialFaults: 1,
		},
		{
			Name: "dup-results",
			Notes: "the network replays whole Results frames; the client must refuse the duplicate (unknown id)" +
				" rather than double-count grants, so client-observed grants still bound below server grants",
			Topology: workload.TopologySpec{Kind: "balanced", Nodes: 32},
			M:        1 << 20, W: 1 << 19,
			Mix:   workload.EventOnlyConcurrentMix(),
			Conns: 4, PerConn: 192, Chunk: 16,
			Seed: 17,
			Faults: []faultnet.Rule{
				// s2c frame 0 is the Welcome; frames 1.. are Results. Conn 0
				// sees a deterministic replay, every conn risks a low-rate
				// probabilistic one.
				{Kind: faultnet.Dup, Dir: faultnet.ServerToClient, Conn: 0, Frame: 3},
				{Kind: faultnet.Dup, Dir: faultnet.ServerToClient, Conn: -1, Frame: -1, Prob: 0.05},
			},
			Recover: true,
		},
	}
}

// HostileByName finds a hostile catalog scenario.
func HostileByName(name string) (Hostile, error) {
	for _, sc := range HostileCatalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Hostile{}, fmt.Errorf("scenario: unknown hostile scenario %q", name)
}

// Trace builds the scenario's topology and per-connection request
// slices: the same (scenario, seed) always yields the same tree and the
// same slice per connection ordinal.
func (sc Hostile) Trace() (*tree.Tree, [][]controller.Request, error) {
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, sc.Topology, sc.Seed); err != nil {
		return nil, nil, err
	}
	ct, err := workload.NewConcurrentTrace(tr, sc.Conns, sc.PerConn, sc.Mix, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	return tr, ct.Clients, nil
}
