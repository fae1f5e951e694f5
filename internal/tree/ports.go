package tree

import "math/rand"

// PortAssigner produces port numbers for newly attached edges. The paper
// assumes the "wasteful" model in which an adversary chooses the port
// numbers, subject only to the numbers at each vertex being distinct and
// encodable in O(log N) bits.
type PortAssigner interface {
	// Assign returns a port number for a new edge at node id that does not
	// collide with any port in used. At the child end of an edge it must lie
	// within ±MaxPort; the tree panics on an assigner that breaks this.
	Assign(id NodeID, used PortSet) int
}

// MaxPort bounds, in absolute value, the port a node uses toward its parent:
// the node table keeps that port in 32 bits so that an entry stays one cache
// line. Both assigners of this package draw far below it, and Restore
// refuses a snapshot that exceeds it.
const MaxPort = 1<<31 - 1

// PortSet is the membership test over the ports in use at one node. The
// tree answers it from the node in place, so assigning a port builds no set.
type PortSet interface {
	Has(port int) bool
}

// SequentialPorts assigns the smallest unused non-negative port number at
// each node. It models the friendly "designer port" regime.
type SequentialPorts struct{}

// NewSequentialPorts returns a SequentialPorts assigner.
func NewSequentialPorts() *SequentialPorts { return &SequentialPorts{} }

// Assign implements PortAssigner.
func (*SequentialPorts) Assign(_ NodeID, used PortSet) int {
	for p := 0; ; p++ {
		if !used.Has(p) {
			return p
		}
	}
}

// AdversarialPorts assigns pseudo-random port numbers drawn from a large
// range, modeling an adversary that scatters the port space (while keeping
// ports O(log N)-bit encodable).
type AdversarialPorts struct {
	rng *rand.Rand
}

// NewAdversarialPorts returns an adversarial assigner seeded with seed.
func NewAdversarialPorts(seed int64) *AdversarialPorts {
	return &AdversarialPorts{rng: rand.New(rand.NewSource(seed))}
}

// Assign implements PortAssigner.
func (a *AdversarialPorts) Assign(_ NodeID, used PortSet) int {
	for {
		p := a.rng.Intn(1 << 30)
		if !used.Has(p) {
			return p
		}
	}
}

var (
	_ PortAssigner = (*SequentialPorts)(nil)
	_ PortAssigner = (*AdversarialPorts)(nil)
)
