// Package majority implements asynchronous majority commitment over a
// dynamically changing network, the application that originally motivated
// size estimation (Bar-Yehuda and Kutten; Section 1.3 of the paper).
//
// A population of P entities exists; initially only the root is awake.
// Entities wake up over time and join the spanning tree gracefully: each
// join is a controlled AddLeaf admitted by a terminating
// (⌊P/2⌋, 0)-controller. Because W = 0, the controller terminates exactly
// when ⌊P/2⌋ joins have been granted, so its termination signal tells the
// root — without any global snapshot or per-event notification — that a
// strict majority of the population (the root plus ⌊P/2⌋ joiners) has
// participated. At that point the root commits.
//
// Members may also leave gracefully before commitment. A vote, once cast,
// is not un-cast: departures go through a separate departure controller
// and do not refund the join count (the committing quantity is "entities
// that ever participated", as in fault-tolerant majority commitment). The
// generalization this paper enables is that such departures — and internal
// joins — proceed under the same controlled dynamic model without
// disturbing the count.
package majority

import (
	"errors"
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Errors reported by the protocol.
var (
	// ErrCommitted is returned for membership changes attempted after
	// the root committed (the decision is final).
	ErrCommitted = errors.New("majority: already committed")
	// errBudget is returned when the departure budget is exhausted.
	errBudget = errors.New("majority: departure budget exhausted")
)

// Protocol is one majority-commitment instance.
type Protocol struct {
	tr         *tree.Tree
	tp         controller.Transport
	population int
	counters   *stats.Counters

	joinCtl   *controller.Iterated
	leaveCtl  *controller.Iterated
	joins     int
	threshold int
	committed bool
}

// New starts a majority-commitment protocol over a population of the given
// size, its two controllers moving packages tp's way. The returned tree
// contains only the (awake) root.
func New(population int, tp controller.Transport) (*Protocol, *tree.Tree, error) {
	if population < 2 {
		return nil, nil, fmt.Errorf("majority: population %d < 2", population)
	}
	tr, _ := tree.New()
	counters := stats.NewCounters()
	threshold := population / 2
	u := int64(2*population) + 8
	terminating := func(m int) *controller.Iterated {
		return tp.NewIterated(tr, u, int64(m), 0,
			controller.WithIteratedCounters(counters), controller.AsTerminating())
	}
	return &Protocol{
		tr:         tr,
		tp:         tp,
		population: population,
		counters:   counters,
		joinCtl:    terminating(threshold),
		leaveCtl:   terminating(population),
		threshold:  threshold,
	}, tr, nil
}

// Join wakes one entity, attaching it under parent, and returns the new
// node's id. The join that reaches the majority threshold commits the root.
func (p *Protocol) Join(parent tree.NodeID) (tree.NodeID, error) {
	if p.committed {
		return tree.InvalidNode, ErrCommitted
	}
	g, err := p.joinCtl.Submit(controller.Request{Node: parent, Kind: tree.AddLeaf})
	if errors.Is(err, controller.ErrTerminated) {
		// All ⌊P/2⌋ join permits were granted earlier; the termination
		// signal has reached the root (W = 0 makes the count exact).
		p.committed = true
		return tree.InvalidNode, ErrCommitted
	}
	if err != nil {
		return tree.InvalidNode, err
	}
	if g.Outcome != controller.Granted {
		return tree.InvalidNode, fmt.Errorf("majority: join not granted (%v)", g.Outcome)
	}
	p.joins++
	if p.joins >= p.threshold {
		p.committed = true
	}
	return g.NewNode, nil
}

// Leave gracefully removes a leaf member before commitment.
func (p *Protocol) Leave(id tree.NodeID) error {
	if p.committed {
		return ErrCommitted
	}
	g, err := p.leaveCtl.Submit(controller.Request{Node: id, Kind: tree.RemoveLeaf})
	if errors.Is(err, controller.ErrTerminated) {
		return errBudget
	}
	if err != nil {
		return err
	}
	if g.Outcome != controller.Granted {
		return fmt.Errorf("majority: leave not granted (%v)", g.Outcome)
	}
	return nil
}

// Decided reports whether the root has committed.
func (p *Protocol) Decided() bool { return p.committed }

// Joins returns the number of entities that have joined (votes cast).
func (p *Protocol) Joins() int { return p.joins }

// Awake returns the current number of tree members.
func (p *Protocol) Awake() int { return p.tr.Size() }

// Messages returns the total cost so far in the transport's measure:
// messages over a message-passing transport.
func (p *Protocol) Messages() int64 { return p.tp.Cost(p.counters) }

// Counters returns the counters both controllers count into.
func (p *Protocol) Counters() *stats.Counters { return p.counters }
