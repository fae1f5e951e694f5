package workload

// This file is the noisy-neighbor scenario of the multi-tenant daemon:
// one tenant (the flooder) drives grow-only traffic as fast as it can
// while another tenant (the victim) replays a pinned request sequence.
// Tenant isolation demands that the flood moves nothing the victim can
// observe — the victim's verdict stream must be bitwise identical to the
// stream the same sequence produces with no neighbor at all, and its
// accounting must reconcile exactly. The comparison itself lives in
// internal/oracle (CheckTenantIsolation); this file generates the two
// workloads and orchestrates the baseline and disturbed phases.

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/oracle"
	"dynctrl/internal/tree"
)

// VictimProbe draws the victim's pinned serial request sequence: n
// event-heavy requests over a snapshot of tr, deterministic in seed. The
// same (tree, n, seed) always yields the identical sequence, which is
// what makes the baseline/disturbed hash comparison meaningful.
func VictimProbe(tr *tree.Tree, n int, seed int64) ([]controller.Request, error) {
	ct, err := NewConcurrentTrace(tr, 1, n, EventHeavyConcurrentMix(), seed)
	if err != nil {
		return nil, err
	}
	return ct.Serial(), nil
}

// runProbe drives reqs serially — one at a time, in order — through sub,
// folding every verdict into a fresh oracle.TenantTrace for tenant under
// permit bound m.
func runProbe(sub controller.Submitter, tenant string, m int64, reqs []controller.Request) *oracle.TenantTrace {
	trace := oracle.NewTenantTrace(tenant, m)
	for _, req := range reqs {
		g, err := sub.Submit(req)
		trace.Record(g, err)
	}
	return trace
}

// NoisyNeighborResult is the outcome of one noisy-neighbor run.
type NoisyNeighborResult struct {
	// Baseline is the victim's trace with no neighbor traffic; Disturbed
	// is the identical sequence replayed under the flood.
	Baseline, Disturbed *oracle.TenantTrace
	// Flood tallies the flooding tenant's own traffic during the
	// disturbed phase.
	Flood ConcurrentResult
	// Violations holds every isolation breach the oracle found (empty on
	// a clean run).
	Violations []oracle.Violation
}

// RunNoisyNeighbor executes the two-phase noisy-neighbor check. setup is
// called once per phase and must return a fresh victim submitter over a
// brand-new, deterministic stack (same parameters both times — the two
// phases replay the identical probe sequence against identical initial
// state). For the disturbed phase (disturbed=true) it additionally
// returns the neighbor flood as a blocking function, which runs
// concurrently with the victim probe; the baseline phase ignores flood.
// The returned result carries both traces and the oracle's verdict.
func RunNoisyNeighbor(tenant string, m int64, probe []controller.Request,
	setup func(disturbed bool) (victim controller.Submitter, flood func() ConcurrentResult, err error),
) (*NoisyNeighborResult, error) {
	victim, _, err := setup(false)
	if err != nil {
		return nil, fmt.Errorf("noisy-neighbor baseline setup: %w", err)
	}
	baseline := runProbe(victim, tenant, m, probe)

	victim, flood, err := setup(true)
	if err != nil {
		return nil, fmt.Errorf("noisy-neighbor disturbed setup: %w", err)
	}
	res := &NoisyNeighborResult{Baseline: baseline}
	floodDone := make(chan struct{})
	if flood != nil {
		go func() {
			defer close(floodDone)
			res.Flood = flood()
		}()
	} else {
		close(floodDone)
	}
	res.Disturbed = runProbe(victim, tenant, m, probe)
	<-floodDone

	res.Violations = oracle.CheckTenantIsolation(res.Baseline, res.Disturbed)
	return res, nil
}
