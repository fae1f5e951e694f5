// Package oracle provides always-on invariant checkers for the
// (M,W)-controller implementations.
//
// An Oracle wraps any request submitter — the centralized controller.Core,
// the distributed dist.Core/Iterated/Dynamic front-ends, the batching
// pipeline — and re-derives the paper's guarantees from the observable
// request/grant stream alone, without trusting the implementation's own
// counters:
//
//   - safety-counter: at most M permits are ever granted (the defining
//     safety property of an (M,W)-Controller, Section 2.1).
//   - reject-legality: a request is rejected only after at least M−W
//     permits have been granted (the waste bound; Theorem 3.2 for the
//     fixed-U core, Theorems 3.5/4.9 for the drivers).
//   - reject-finality: once the reject wave has run, no later request is
//     granted (item 1 of Protocol GrantOrReject: a reject package at the
//     node rejects outright).
//   - serial-unique / serial-range: explicit permit serials are pairwise
//     distinct and lie in [1, M] (the name-assignment invariant of
//     Section 5.2).
//   - message-budget: the transport messages — or, for the centralized
//     engine, the moves — spent on one request stay within the per-request
//     geometric envelope of Lemma 4.5 — a climb and a descent bounded by
//     the tree height per driver attempt, plus the sweeps of the one
//     request that exhausts the contract (termination detection's
//     broadcast and upcast, then the reject-wave flood) — with a generous
//     constant so only runaway protocols (resend loops, livelock) trip it.
//   - tree-structure: the tree stays structurally valid (parent/child
//     symmetry, depth cache, port uniqueness, reachability).
//
// Violations are collected, not panicked, so a scenario run can report
// every broken invariant at once; Err() turns them into a single error for
// test assertions. The scenario engine (internal/workload) wraps every run
// in an Oracle unconditionally — the checks are the always-on safety net
// every adversarial schedule runs against.
package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// Violation records one observed invariant breach.
type Violation struct {
	// Invariant is the short check name (e.g. "safety-counter").
	Invariant string `json:"invariant"`
	// Request is the 0-based submission index the breach was observed at,
	// or -1 for end-of-run checks.
	Request int `json:"request"`
	// Detail is a human-readable description of the breach.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (request %d): %s", v.Invariant, v.Request, v.Detail)
}

// Option configures an Oracle.
type Option func(*Oracle)

// WithMessages attaches a sampler of the engine's cost counter — the
// transport's delivered-message count (rt.Messages) or the centralized
// engine's move counter — and enables the per-request message-budget check.
func WithMessages(fn func() int64) Option {
	return func(o *Oracle) { o.msgs = fn }
}

// WithSerials enables the serial uniqueness and range checks. Only enable
// it for controllers that carry explicit serial intervals; the plain
// controllers report serial 0, which the checks ignore anyway.
func WithSerials() Option {
	return func(o *Oracle) { o.checkSerials = true }
}

// WithBaseline seeds the oracle with the grant/reject totals of earlier
// incarnations, so an oracle wrapped around a recovered controller keeps
// checking the (M,W) contract across the restart: the safety counter
// continues from the recovered grant count instead of resetting. Serial
// uniqueness across incarnations is CheckCrossIncarnations' check, over the
// logged history.
func WithBaseline(granted, rejected int64) Option {
	return func(o *Oracle) {
		o.granted += granted
		o.rejected += rejected
	}
}

// Oracle wraps a controller.Submitter and checks the controller invariants
// on every submission. It is one itself, so it can be dropped in front of
// any driver loop. Not safe for concurrent use: like the controllers
// themselves, the oracle assumes one request at a time (put it behind a
// pipeline, not in front of one, for concurrent traffic).
type Oracle struct {
	target controller.Submitter
	tr     *tree.Tree
	m, w   int64

	submitted   int
	granted     int64
	rejected    int64
	errors      int
	firstReject int

	checkSerials bool
	seenSerials  map[int64]struct{}

	msgs     func() int64
	lastMsgs int64
	// budgetAttempts scales the message budget: a driver may run several
	// protocol attempts per submission (the iterated waste-halving stack
	// retries after an exhausted iteration), up to 2+⌈log₂(M+1)⌉ of them,
	// which covers every driver in the repo.
	budgetAttempts int64

	violations []Violation
}

// validateEvery is how often Submit runs the O(n) tree structure
// validation: every 16th submission. Finish always runs it.
const validateEvery = 16

// Wrap builds an oracle around target, checking against the (m, w) contract
// over tr.
func Wrap(target controller.Submitter, tr *tree.Tree, m, w int64, opts ...Option) *Oracle {
	o := &Oracle{
		target:         target,
		tr:             tr,
		m:              m,
		w:              w,
		firstReject:    -1,
		seenSerials:    make(map[int64]struct{}),
		budgetAttempts: 2 + int64(log2Ceil(m+1)),
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.msgs != nil {
		o.lastMsgs = o.msgs()
	}
	return o
}

func log2Ceil(n int64) int {
	k := 0
	for v := int64(1); v < n; v <<= 1 {
		k++
	}
	return k
}

func (o *Oracle) report(invariant string, request int, format string, args ...any) {
	o.violations = append(o.violations, Violation{
		Invariant: invariant,
		Request:   request,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Submit forwards the request to the target and checks every invariant the
// new observation can affect. Errors from the target (invalid requests,
// termination) pass through unchecked: they are part of the controller
// contract, not breaches of it.
func (o *Oracle) Submit(req controller.Request) (controller.Grant, error) {
	idx := o.submitted
	o.submitted++

	var height, size int
	if o.msgs != nil {
		// Snapshot the pre-request geometry: the climb/descent bound must
		// use the tree as the request saw it.
		height = o.tr.Height()
		size = o.tr.Size()
	}

	g, err := o.target.Submit(req)
	if err != nil {
		o.errors++
		if o.msgs != nil {
			// The failing request may still have spent transport messages
			// (errors can surface after the drain); absorb them so they are
			// not charged to the next request's budget.
			o.lastMsgs = o.msgs()
		}
		return g, err
	}

	switch g.Outcome {
	case controller.Granted:
		o.granted++
		if o.granted > o.m {
			o.report("safety-counter", idx,
				"granted %d permits, contract allows M=%d", o.granted, o.m)
		}
		if o.firstReject >= 0 {
			o.report("reject-finality", idx,
				"grant after the reject wave ran (first reject at request %d)", o.firstReject)
		}
		if o.checkSerials && g.Serial != 0 {
			if g.Serial < 1 || g.Serial > o.m {
				o.report("serial-range", idx,
					"serial %d outside [1, M=%d]", g.Serial, o.m)
			}
			if _, dup := o.seenSerials[g.Serial]; dup {
				o.report("serial-unique", idx, "serial %d granted twice", g.Serial)
			}
			o.seenSerials[g.Serial] = struct{}{}
		}
	case controller.Rejected:
		o.rejected++
		if o.firstReject < 0 {
			o.firstReject = idx
			if o.granted < o.m-o.w {
				o.report("reject-legality", idx,
					"rejected with only %d granted; the (M=%d, W=%d) contract requires at least %d",
					o.granted, o.m, o.w, o.m-o.w)
			}
		}
	}

	if o.msgs != nil {
		now := o.msgs()
		spent := now - o.lastMsgs
		o.lastMsgs = now
		// One protocol attempt costs at most a climb plus a descent (each
		// bounded by the height) and one graceful-deletion transfer. The
		// request that exhausts the contract also pays at most three edge
		// sweeps: the reject-wave flood, and — where the sampler counts
		// driver-level sweeps, as the move counter does — the broadcast
		// and upcast of termination detection (Observation 2.1).
		perAttempt := int64(2*(height+1) + 2)
		budget := perAttempt*o.budgetAttempts + 3*int64(size)
		if spent > budget {
			o.report("message-budget", idx,
				"request spent %d transport messages, budget %d (height %d, %d nodes, %d attempts)",
				spent, budget, height, size, o.budgetAttempts)
		}
	}

	if o.submitted%validateEvery == 0 {
		if verr := o.tr.Validate(); verr != nil {
			o.report("tree-structure", idx, "%v", verr)
		}
	}
	return g, nil
}

// SubmitBatch implements controller.BatchSubmitter one request at a time:
// every check needs the state its own request left, so the oracle never
// hands the target a batch.
func (o *Oracle) SubmitBatch(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	at := len(out)
	out = slices.Grow(out, len(reqs))[:at+len(reqs)]
	for i, req := range reqs {
		r := &out[at+i]
		r.Grant, r.Err = o.Submit(req)
	}
	return out
}

// Granted returns the number of grants the oracle observed.
func (o *Oracle) Granted() int64 { return o.granted }

// Rejected returns the number of rejects the oracle observed.
func (o *Oracle) Rejected() int64 { return o.rejected }

// Submitted returns the number of submissions driven through the oracle.
func (o *Oracle) Submitted() int { return o.submitted }

// Errors returns the number of submissions that returned an error.
func (o *Oracle) Errors() int { return o.errors }

// Violations returns the breaches observed so far.
func (o *Oracle) Violations() []Violation { return o.violations }

// Finish runs the end-of-run checks and returns every violation of the
// whole run. Reject legality needs no final re-check: grants are monotone,
// so a run that ends under M−W grants with rejects was already flagged at
// its first reject.
func (o *Oracle) Finish() []Violation {
	if err := o.tr.Validate(); err != nil {
		o.report("tree-structure", -1, "%v", err)
	}
	return o.violations
}

// Err returns nil when no invariant was breached, else one error listing
// every violation. Call Finish first for the end-of-run checks.
func (o *Oracle) Err() error {
	if len(o.violations) == 0 {
		return nil
	}
	lines := make([]string, len(o.violations))
	for i, v := range o.violations {
		lines[i] = v.String()
	}
	return errors.New("oracle: " + strings.Join(lines, "; "))
}
