// Package dynctrl is a Go implementation of "Controller and estimator for
// dynamic networks" by Amos Korman and Shay Kutten (PODC 2007; journal
// version Information & Computation 223, 2013).
//
// The library provides:
//
//   - An (M,W)-Controller for dynamic trees under the controlled dynamic
//     model, supporting insertions and deletions of both leaves and
//     internal nodes, in a centralized form (move complexity) and a
//     distributed form (message complexity) with matching asymptotics.
//   - The size-estimation protocol: every node maintains a β-approximation
//     of the current network size at amortized O(log²n) messages per
//     topological change.
//   - The name-assignment protocol: unique identities in [1, 4n] at all
//     times.
//   - A heavy-child decomposition of the dynamic tree (O(log n) light
//     ancestors).
//   - Dynamic extensions of static labeling schemes (ancestry, NCA,
//     distance), and a majority-commitment protocol built on the counting
//     machinery.
//
// # Quick start
//
//	tr, root := dynctrl.NewTree()
//	ctl := dynctrl.NewController(tr, dynctrl.Centralized, 1000, 50) // (M,W) = (1000, 50)
//	grant, err := ctl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
//
// Every topological change must be requested through a controller (the
// controlled dynamic model of the paper): the change is applied gracefully
// once the request is granted.
//
// Every protocol runs over a Transport. Centralized moves permit packages
// directly and counts moves (Section 3); dynctrld serves with it.
// Simulated(seed) sends them as messages through a seeded asynchronous
// scheduler and reproduces the paper's message counts (Section 4). Both take
// the same decisions on the same trace; tp.Cost(ctl.Counters()) is the cost.
package dynctrl

import (
	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/estimator"
	"dynctrl/internal/heavychild"
	"dynctrl/internal/labeling"
	"dynctrl/internal/majority"
	"dynctrl/internal/naming"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Core tree types.
type (
	// Tree is the dynamic rooted spanning tree substrate.
	Tree = tree.Tree
	// NodeID identifies a (possibly deleted) node.
	NodeID = tree.NodeID
	// ChangeKind enumerates the topological change types.
	ChangeKind = tree.ChangeKind
)

// Request/response types of the controller.
type (
	// Request is one event submitted to a controller.
	Request = controller.Request
	// Grant is a controller's answer.
	Grant = controller.Grant
	// Outcome is the answer kind (Granted / Rejected / WouldReject).
	Outcome = controller.Outcome
)

// Topological change kinds (None marks non-topological events).
const (
	None           = tree.None
	AddLeaf        = tree.AddLeaf
	RemoveLeaf     = tree.RemoveLeaf
	AddInternal    = tree.AddInternal
	RemoveInternal = tree.RemoveInternal
)

// Request outcomes.
const (
	Granted     = controller.Granted
	Rejected    = controller.Rejected
	WouldReject = controller.WouldReject
)

// ErrTerminated is returned by terminating controllers after termination.
var ErrTerminated = controller.ErrTerminated

// Counters accumulates cost metrics (moves or messages, grants, ...).
// Controller.Counters returns the set a controller counts into. It has no
// lock: read it on the goroutine that drives the controller, or under the
// lock that orders its submissions. Behind a Pipeline, whose submitters
// take turns driving, read it after Flush or Close.
type Counters = stats.Counters

// NewTree creates a dynamic tree holding only a root and returns both.
func NewTree() (*Tree, NodeID) { return tree.New() }

// Transport is the execution model a protocol's packages move under.
type Transport = controller.Transport

// Centralized moves packages directly, one move each (Section 3). Its
// Counter is "moves".
var Centralized = controller.Centralized

// Simulated returns the message-passing transport of Section 4 over a
// deterministic runtime seeded with seed: reproducible, adversarially
// shuffled asynchronous delivery. Its Counter is "control-messages", and its
// Cost adds the messages the runtime delivered.
func Simulated(seed int64) Transport { return dist.Over(sim.NewDeterministic(seed)) }

// Controller is the unknown-U (M,W)-Controller — the paper's headline
// construction (Theorem 4.9). No bound on the number of nodes is needed in
// advance; over Simulated its message complexity is
// O(n₀log²n₀·log(M/(W+1)) + Σ_j log²n_j·log(M/(W+1))).
type Controller = controller.Dynamic

// NewController builds an (m,w)-Controller over tr, moving packages under tp.
func NewController(tr *Tree, tp Transport, m, w int64) *Controller {
	return tp.NewDynamic(tr, m, w)
}

// Pipeline lets many goroutines share one controller. The controller
// serves one request at a time and has no lock of its own; Pipeline is that
// lock. Submit and SubmitMany run one after the other, each run answered in
// order, so grant/reject semantics, and the safety invariant that at most M
// permits are ever granted, are exactly those of a serial Submit loop over
// the order in which the callers got the lock. A SubmitMany run costs less
// per request than a loop of Submits: the controller answers it on its
// batch path, where a request whose node holds a static package moves no
// message, and the lock is taken once for the run.
//
//	ctl := dynctrl.NewController(tr, dynctrl.Centralized, 1_000_000, 50_000)
//	pl := dynctrl.NewPipeline(ctl)
//	// from any number of goroutines:
//	grant, err := pl.Submit(dynctrl.Request{Node: id, Kind: dynctrl.None})
//	// barrier: wait until everything submitted so far has been answered
//	pl.Flush()
//
// See Pipeline.Submit, Pipeline.SubmitMany, Pipeline.Flush, Pipeline.Close
// and Pipeline.Stats.
type Pipeline = pipeline.Pipeline

// BatchSubmitter is a controller that can answer a whole batch of requests
// with serial-equivalent semantics. Controller implements it.
type BatchSubmitter = controller.BatchSubmitter

// NewPipeline builds a pipeline over the given controller. The controller
// must no longer be driven directly while the pipeline is in use (the
// pipeline serializes all access to it).
func NewPipeline(ctl BatchSubmitter) *Pipeline {
	return pipeline.New(ctl)
}

// ErrPipelineClosed is the sentinel returned by Pipeline.Submit and
// Pipeline.SubmitMany after Pipeline.Close.
var ErrPipelineClosed = pipeline.ErrClosed

// RemoteClient is a connection-pooled, pipelined client of a dynctrld
// daemon (cmd/dynctrld). It exposes the same Submit/SubmitMany surface as
// the in-process controllers, so drivers written against either run
// unchanged over TCP.
type RemoteClient = client.Client

// RemoteOptions configures Dial (pool size, tenant, timeouts).
type RemoteOptions = client.Options

// Dial connects to a dynctrld daemon with a pool of opts.Conns connections
// and performs the protocol handshake against the tenant namespace
// opts.Tenant (the default one when empty). The returned client reports
// that tenant's (M, W) contract and is safe for concurrent use. Dialing a
// namespace the daemon does not serve fails with a typed handshake error:
//
//	cl, err := dynctrl.Dial("127.0.0.1:7700", dynctrl.RemoteOptions{Conns: 8})
//	grant, err := cl.Submit(dynctrl.Request{Node: id, Kind: dynctrl.None})
func Dial(addr string, opts RemoteOptions) (*RemoteClient, error) {
	return client.Dial(addr, opts)
}

// Estimator maintains a β-approximation of the network size at every node.
// Like a Controller it has no lock: drive it from one goroutine.
type Estimator = estimator.Estimator

// NewEstimator builds the size-estimation protocol (Theorem 5.1).
func NewEstimator(tr *Tree, tp Transport, beta float64) (*Estimator, error) {
	return estimator.New(tr, tp, beta)
}

// Naming maintains unique node identities in [1, 4n].
type Naming = naming.Naming

// NewNaming builds the name-assignment protocol (Theorem 5.2).
func NewNaming(tr *Tree, tp Transport) *Naming {
	return naming.New(tr, tp)
}

// HeavyChild maintains a heavy-child decomposition (Theorem 5.4).
type HeavyChild = heavychild.Decomposition

// NewHeavyChild builds the heavy-child decomposition protocol.
func NewHeavyChild(tr *Tree, tp Transport) (*HeavyChild, error) {
	return heavychild.New(tr, tp)
}

// Labeling types (Section 5.4).
type (
	// AncestryLabeling is the static KNR interval scheme.
	AncestryLabeling = labeling.Ancestry
	// NCALabeling answers nearest-common-ancestor queries from labels.
	NCALabeling = labeling.NCA
	// DistanceLabeling answers exact tree-distance queries from labels.
	DistanceLabeling = labeling.Distance
	// RoutingScheme is exact (stretch-1) interval routing on the tree.
	RoutingScheme = labeling.Routing
	// DynamicLabeling recomputes a static scheme as the size drifts.
	DynamicLabeling = labeling.Dynamic
)

// BuildAncestryLabels labels the current tree with interval labels.
func BuildAncestryLabels(tr *Tree) *AncestryLabeling { return labeling.BuildAncestry(tr) }

// BuildNCALabels labels the current tree for NCA queries (O(log²n)-bit
// labels via heavy-path decomposition).
func BuildNCALabels(tr *Tree) *NCALabeling { return labeling.BuildNCA(tr) }

// BuildDistanceLabels labels the current tree for exact distance queries
// (O(log n) separator entries per label via centroid decomposition).
func BuildDistanceLabels(tr *Tree) *DistanceLabeling { return labeling.BuildDistance(tr) }

// BuildRoutingTables snapshots exact interval-routing tables for the
// current tree (next hops computed from local tables + destination labels).
func BuildRoutingTables(tr *Tree) (*RoutingScheme, error) { return labeling.BuildRouting(tr) }

// QueryNCA answers an NCA query (as a preorder number) from two labels.
func QueryNCA(a, b labeling.NCALabel) (int, error) { return labeling.QueryNCA(a, b) }

// QueryDistance answers an exact tree-distance query from two labels.
func QueryDistance(a, b labeling.DistanceLabel) (int, error) { return labeling.QueryDistance(a, b) }

// NewDynamicAncestryLabeling wraps the ancestry scheme with size-driven
// rebuilds so label sizes track the current n (Corollary 5.7).
func NewDynamicAncestryLabeling(tr *Tree, tp Transport) (*DynamicLabeling, error) {
	return labeling.NewDynamic(tr, tp, func(tr *tree.Tree) (labeling.Scheme, int64) {
		return labeling.BuildAncestry(tr), int64(tr.Size())
	})
}

// Majority is the majority-commitment protocol.
type Majority = majority.Protocol

// NewMajority starts majority commitment over the given population,
// returning the protocol and its (single-root) tree.
func NewMajority(population int, tp Transport) (*Majority, *Tree, error) {
	return majority.New(population, tp)
}
