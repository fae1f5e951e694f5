// Package bench is the repository's benchmark: six named workloads driven
// against the real dynctrld binary from outside, the end-to-end metrics a
// client of the daemon sees, and a per-layer ladder that replays the same
// generated input through each module's public functions. README.md in this
// directory is the reference for every name; BENCHMARK.json at the root of
// the repository is the contract.
package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

const (
	// Scale divides every request count of the workload table in README.md.
	// At the full counts one pass over the six workloads takes minutes and
	// the driver's budget allows about twenty seconds a run, so every count
	// carries this one common factor.
	Scale = 16

	// Conns is the number of client connections, pinned: the sandbox has
	// two cores and the daemon needs one of them.
	Conns = 2

	// traceLen caps one connection's generated trace; longer runs replay it
	// in rounds.
	traceLen = 1 << 19

	// topologySeed is the daemon's -seed: it fixes the initial tree and the
	// sim scheduler's delivery order. The benchmark's own seed never reaches
	// the daemon except through the requests it generates.
	topologySeed = 1

	// openSlots is the number of requests the open loop keeps in flight.
	openSlots = 16
)

// Workload is one named traffic mix. Count is the total number of requests
// over both connections, warm-up included.
type Workload struct {
	Name       string
	Why        string
	Topology   workload.TopologySpec
	AddLeafPct int // share of requests that add a leaf; the rest are events
	Chunk      int // requests per SubmitMany call
	Count      int
	M, W       int64
	WAL        bool
	OpenRate   float64 // arrivals per second; 0 means closed loop
	// Ungated keeps the workload out of BENCHMARK.json: it runs by name and
	// in a run of all workloads, but the driver holds no bound against it.
	Ungated bool
}

// Workloads is the benchmark's workload table, in running order.
func Workloads() []Workload {
	balanced := workload.TopologySpec{Kind: "balanced", Nodes: 256}
	mw := func(w Workload) Workload {
		if w.M == 0 {
			w.M = 4 * int64(w.Count)
			w.W = w.M / 2
		}
		return w
	}
	deep := 2 * traceLen * 8 / Scale
	return []Workload{
		mw(Workload{
			Name: "events-batch", Topology: balanced, Chunk: 128, Count: 2 * traceLen * 64 / Scale,
			Why: "per-request cost: codec, ingest copy and Results write dominate; engine on the static-package path, WAL off",
		}),
		mw(Workload{
			Name: "events-single", Topology: balanced, Chunk: 1, Count: (1 << 20) / Scale, Ungated: true,
			Why: "per-frame cost at the smallest message: syscalls, wake-ups, one pipeline handoff per request; timer-free latency",
		}),
		mw(Workload{
			Name: "grow-mix", Topology: balanced, AddLeafPct: 50, Chunk: 128, Count: 800_000 / Scale,
			Why: "engine and tree regime: half the requests add a leaf, so tree, dist, sim and GC do the work and the wire is noise",
		}),
		{
			Name: "deep-exhaust", Topology: workload.TopologySpec{Kind: "path", Nodes: 8192}, Chunk: 128, Count: deep,
			M: int64(deep) / 2, W: int64(deep) / 2 / 64,
			Why: "scarce permits on a deep tree, then the reject wave and the reject path for the second half; no mutation",
		},
		mw(Workload{
			Name: "events-wal", Ungated: true, Topology: balanced, Chunk: 128, Count: 8_000_000 / Scale, WAL: true,
			Why: "persist regime: every reply waits for its fsync; group commit, checkpoints and the only recovery from kill -9",
		}),
		mw(Workload{
			Name: "events-open", Topology: balanced, Chunk: 1, Count: 300_000 / Scale, OpenRate: 20_000, Ungated: true,
			Why: "open loop, Poisson 20000 req/s: several requests in flight per connection, latency timed from the due instant",
		}),
	}
}

// Gated lists the workloads BENCHMARK.json names, in its order.
func Gated() []Workload {
	var out []Workload
	for _, w := range Workloads() {
		if !w.Ungated {
			out = append(out, w)
		}
	}
	return out
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Input is everything generated from the seed for one workload: one request
// trace per connection and, for the open loop, the arrival schedule.
type Input struct {
	W       Workload
	Seed    int64
	TopoSig uint64 // of the daemon's initial topology, rebuilt locally
	Traces  [Conns][]controller.Request
	PerConn int             // requests each connection sends, warm-up included
	Offsets []time.Duration // open loop: arrival i is due at Offsets[i]
}

// Generate builds the workload's input from seed. The same seed gives the
// same input; the topology does not depend on it.
func Generate(w Workload, seed int64) (*Input, error) {
	in := &Input{W: w, Seed: seed, PerConn: w.Count / Conns}
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, w.Topology, topologySeed); err != nil {
		return nil, err
	}
	in.TopoSig = workload.TopologySignature(tr)
	n := in.PerConn
	if n > traceLen {
		n = traceLen
	}
	mix := workload.ConcurrentMix{Event: 100 - w.AddLeafPct, AddLeaf: w.AddLeafPct}
	ct, err := workload.NewConcurrentTrace(tr, Conns, n, mix, seed)
	if err != nil {
		return nil, err
	}
	copy(in.Traces[:], ct.Clients)
	if w.OpenRate > 0 {
		in.Offsets, err = workload.ArrivalSchedule(workload.OpenLoopSpec{
			Rate: w.OpenRate, Arrival: workload.ArrivalPoisson, Total: w.Count, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// NumChunks is the number of SubmitMany calls each connection makes.
func (in *Input) NumChunks() int { return (in.PerConn + in.W.Chunk - 1) / in.W.Chunk }

// Chunk returns the requests of connection conn's k-th call. Runs longer
// than the generated trace replay it in rounds; the trace length is a
// multiple of every chunk size, so a call never straddles two rounds.
func (in *Input) Chunk(conn, k int) []controller.Request {
	lo := k * in.W.Chunk
	hi := lo + in.W.Chunk
	if hi > in.PerConn {
		hi = in.PerConn
	}
	tr := in.Traces[conn]
	off := lo % len(tr)
	return tr[off : off+hi-lo]
}

// ChunkID names a call across rungs and runs: every span serving the same
// chunk carries it.
func ChunkID(conn, k int) int64 { return int64(k*Conns + conn) }

// Request returns the i-th request of the serial interleaving of the two
// traces, the order the open loop sends in.
func (in *Input) Request(i int) controller.Request {
	tr := in.Traces[i%Conns]
	return tr[(i/Conns)%len(tr)]
}

// Hash fingerprints the generated input, so a test can pin that a seed
// always yields the same one.
func (in *Input) Hash() uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	h.Write([]byte(in.W.Name))
	put(int64(in.PerConn))
	put(int64(in.TopoSig))
	for _, tr := range in.Traces {
		for _, r := range tr {
			put(int64(r.Node))
			put(int64(r.Kind))
			put(int64(r.Child))
		}
	}
	for _, o := range in.Offsets {
		put(int64(o))
	}
	return h.Sum64()
}
