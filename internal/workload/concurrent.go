package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// This file generates workloads for concurrent clients. The stateful
// generators of workload.go consult the live tree before every draw, which
// is exactly right for a serial driver but useless for concurrent
// submitters: by the time a request reaches the controller the tree may
// have changed. Concurrent traces are therefore pre-generated over a
// snapshot of the tree and restricted to interleaving-safe request kinds —
// non-topological events and leaf additions under snapshot nodes — which
// stay valid under every execution order (snapshot nodes are never removed
// by such a trace).

// ConcurrentMix describes the relative weights of the interleaving-safe
// request kinds in a concurrent trace.
type ConcurrentMix struct {
	Event   int // non-topological events (kind None)
	AddLeaf int // leaf additions under snapshot nodes
}

// EventHeavyConcurrentMix models metered traffic with light growth: mostly
// events, some insertions.
func EventHeavyConcurrentMix() ConcurrentMix { return ConcurrentMix{Event: 90, AddLeaf: 10} }

// EventOnlyConcurrentMix issues only non-topological events.
func EventOnlyConcurrentMix() ConcurrentMix { return ConcurrentMix{Event: 100} }

// ConcurrentTrace is a deterministic request trace pre-partitioned across
// concurrent clients: client i plays Clients[i] in order, concurrently with
// the other clients. Serial reproduces the same requests as one
// interleaved round-robin stream, so a serial driver can replay the exact
// workload for comparisons.
type ConcurrentTrace struct {
	Clients [][]controller.Request
}

// NewConcurrentTrace draws perClient requests for each of clients clients
// over a snapshot of tr's current nodes, deterministically for a given
// seed: the same (tree, clients, perClient, mix, seed) always yields the
// identical trace. All requests remain valid under every interleaving.
func NewConcurrentTrace(tr *tree.Tree, clients, perClient int, mix ConcurrentMix, seed int64) (*ConcurrentTrace, error) {
	if clients < 1 {
		return nil, fmt.Errorf("concurrent trace: need at least 1 client, got %d", clients)
	}
	if mix.Event < 0 || mix.AddLeaf < 0 || mix.Event+mix.AddLeaf <= 0 {
		return nil, fmt.Errorf("concurrent trace: invalid mix %+v", mix)
	}
	nodes := tr.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("concurrent trace: empty tree")
	}
	total := mix.Event + mix.AddLeaf
	ct := &ConcurrentTrace{Clients: make([][]controller.Request, clients)}
	for i := range ct.Clients {
		// Every client draws from its own derived stream, so one client's
		// trace does not depend on how many other clients exist.
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		reqs := make([]controller.Request, perClient)
		for j := range reqs {
			node := nodes[rng.Intn(len(nodes))]
			kind := tree.None
			if rng.Intn(total) >= mix.Event {
				kind = tree.AddLeaf
			}
			reqs[j] = controller.Request{Node: node, Kind: kind}
		}
		ct.Clients[i] = reqs
	}
	return ct, nil
}

// Len returns the total number of requests in the trace.
func (ct *ConcurrentTrace) Len() int {
	n := 0
	for _, c := range ct.Clients {
		n += len(c)
	}
	return n
}

// Serial returns the trace as one stream, interleaving the clients
// round-robin (client 0's first request, client 1's first, ..., client 0's
// second, ...). A serial Submit loop over this stream is the baseline the
// pipeline is benchmarked against.
func (ct *ConcurrentTrace) Serial() []controller.Request {
	out := make([]controller.Request, 0, ct.Len())
	for j := 0; ; j++ {
		emitted := false
		for _, c := range ct.Clients {
			if j < len(c) {
				out = append(out, c[j])
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// ConcurrentResult tallies the outcomes of a concurrently driven trace.
type ConcurrentResult struct {
	Granted   int64
	Rejected  int64
	Errors    int64
	Submitted int64
}

// ManySubmitter is a submitter accepting runs of requests in one call with
// per-request results (pipeline.Pipeline implements it).
type ManySubmitter interface {
	SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error)
}

// RunConcurrentChunked plays the trace against sub, one goroutine per
// client, submitting runs of chunk requests per call, the streaming-client
// pattern: the pipeline takes its lock once for a whole chunk. chunk < 1
// means each client submits its whole trace at once.
func RunConcurrentChunked(sub ManySubmitter, ct *ConcurrentTrace, chunk int) ConcurrentResult {
	var (
		mu  sync.Mutex
		res ConcurrentResult
		wg  sync.WaitGroup
	)
	for _, reqs := range ct.Clients {
		wg.Add(1)
		go func(reqs []controller.Request) {
			defer wg.Done()
			var local ConcurrentResult
			var out []controller.BatchResult
			step := chunk
			if step < 1 {
				step = len(reqs)
			}
			for lo := 0; lo < len(reqs); lo += step {
				hi := lo + step
				if hi > len(reqs) {
					hi = len(reqs)
				}
				run := reqs[lo:hi]
				var err error
				out, err = sub.SubmitMany(run, out[:0])
				local.Submitted += int64(len(run))
				if err != nil {
					local.Errors += int64(len(run))
					continue
				}
				for _, r := range out {
					switch {
					case r.Err != nil:
						local.Errors++
					case r.Grant.Outcome == controller.Granted:
						local.Granted++
					case r.Grant.Outcome == controller.Rejected:
						local.Rejected++
					}
				}
			}
			mu.Lock()
			res.Granted += local.Granted
			res.Rejected += local.Rejected
			res.Errors += local.Errors
			res.Submitted += local.Submitted
			mu.Unlock()
		}(reqs)
	}
	wg.Wait()
	return res
}
