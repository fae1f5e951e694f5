package oracle_test

import (
	"slices"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/oracle"
	"dynctrl/internal/sim"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

func buildTree(t testing.TB, n int, seed int64) *tree.Tree {
	t.Helper()
	tr, _ := tree.New()
	if err := tree.Build(tr, tree.Shape{Kind: "balanced", Nodes: n}, seed); err != nil {
		t.Fatal(err)
	}
	return tr
}

func hasViolation(vs []oracle.Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestOracleCleanOnHealthyController drives exhausting churn through the
// real distributed controller under every catalog scheduler; the oracle
// must stay silent on a correct implementation, including through the
// reject wave.
func TestOracleCleanOnHealthyController(t *testing.T) {
	for _, sched := range sim.SchedulerNames() {
		t.Run(sched, func(t *testing.T) {
			tr := buildTree(t, 48, 1)
			rt, err := sim.NewRuntime(sched, 7)
			if err != nil {
				t.Fatal(err)
			}
			m, w := int64(300), int64(60)
			ctl := dist.Over(rt).NewDynamic(tr, m, w)
			orc := oracle.Wrap(ctl, tr, m, w, oracle.WithMessages(rt.Messages))
			gen := workload.NewChurn(tr, workload.EventOnlyMix(), 5)
			for i := 0; i < 500; i++ {
				req, ok := gen.Next()
				if !ok {
					break
				}
				if _, err := orc.Submit(req); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			if orc.Rejected() == 0 {
				t.Fatal("workload was meant to exhaust the controller")
			}
			if vs := orc.Finish(); len(vs) != 0 {
				t.Fatalf("healthy controller flagged: %v", vs)
			}
		})
	}
}

// overgranter injects the paper's cardinal safety bug: it converts every
// reject of the wrapped controller into a fake grant, so the observable
// grant count exceeds M.
type overgranter struct{ inner controller.Submitter }

func (s overgranter) Submit(req controller.Request) (controller.Grant, error) {
	g, err := s.inner.Submit(req)
	if err == nil && g.Outcome == controller.Rejected {
		g = controller.Grant{Outcome: controller.Granted}
	}
	return g, err
}

// TestOracleCatchesInjectedOvergrant is the demonstration required by the
// scenario-engine acceptance bar: a controller that grants more than M
// permits must be caught by the safety-counter oracle.
func TestOracleCatchesInjectedOvergrant(t *testing.T) {
	tr := buildTree(t, 32, 2)
	rt := sim.NewDeterministic(3)
	m, w := int64(120), int64(24)
	ctl := dist.Over(rt).NewDynamic(tr, m, w)
	orc := oracle.Wrap(overgranter{ctl}, tr, m, w, oracle.WithMessages(rt.Messages))
	for i := 0; i < 300; i++ {
		if _, err := orc.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	vs := orc.Finish()
	if !hasViolation(vs, "safety-counter") {
		t.Fatalf("granted %d with M=%d and the oracle stayed silent: %v", orc.Granted(), m, vs)
	}
}

// earlyRejecter rejects everything from the first request on, then grants
// one late request: both reject-legality and reject-finality must fire.
type earlyRejecter struct{ n int }

func (s *earlyRejecter) Submit(controller.Request) (controller.Grant, error) {
	s.n++
	if s.n == 5 {
		return controller.Grant{Outcome: controller.Granted}, nil
	}
	return controller.Grant{Outcome: controller.Rejected}, nil
}

func TestOracleCatchesIllegalRejects(t *testing.T) {
	tr := buildTree(t, 8, 3)
	orc := oracle.Wrap(&earlyRejecter{}, tr, 100, 10)
	for i := 0; i < 6; i++ {
		if _, err := orc.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Fatal(err)
		}
	}
	vs := orc.Finish()
	if !hasViolation(vs, "reject-legality") {
		t.Fatalf("reject at 0 grants not flagged: %v", vs)
	}
	if !hasViolation(vs, "reject-finality") {
		t.Fatalf("grant after reject not flagged: %v", vs)
	}
}

// TestSubmitBatchIsTheSerialLoop: a batch through the oracle is its requests
// through Submit one by one, on a healthy controller that runs into its
// reject wave and on a stub that breaks two invariants mid-batch: the same
// results, the same tallies, the same violations at the same request indices.
func TestSubmitBatchIsTheSerialLoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(*tree.Tree) controller.Submitter
	}{
		{"centralized", func(tr *tree.Tree) controller.Submitter { return controller.NewDynamic(tr, 20, 5) }},
		{"early rejecter", func(*tree.Tree) controller.Submitter { return &earlyRejecter{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trSerial, trBatch := buildTree(t, 8, 3), buildTree(t, 8, 3)
			serial := oracle.Wrap(tc.target(trSerial), trSerial, 20, 5)
			batch := oracle.Wrap(tc.target(trBatch), trBatch, 20, 5)
			reqs := make([]controller.Request, 40)
			for i := range reqs {
				reqs[i] = controller.Request{Node: trSerial.Root(), Kind: tree.None}
			}
			reqs[7].Node = 1 << 20 // no such node: an error result mid-batch

			var want []controller.BatchResult
			for _, req := range reqs {
				g, err := serial.Submit(req)
				want = append(want, controller.BatchResult{Grant: g, Err: err})
			}
			got := batch.SubmitBatch(reqs[:16], nil)
			got = batch.SubmitBatch(reqs[16:], got)
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Grant != want[i].Grant || (got[i].Err == nil) != (want[i].Err == nil) {
					t.Errorf("request %d: batch answered %+v, serial %+v", i, got[i], want[i])
				}
			}
			if batch.Granted() != serial.Granted() || batch.Rejected() != serial.Rejected() {
				t.Errorf("tallies differ: batch %d/%d, serial %d/%d",
					batch.Granted(), batch.Rejected(), serial.Granted(), serial.Rejected())
			}
			if g, w := batch.Finish(), serial.Finish(); !slices.Equal(g, w) {
				t.Errorf("violations differ:\nbatch  %v\nserial %v", g, w)
			}
			if serial.Rejected() == 0 {
				t.Fatal("the trace was meant to reach rejects")
			}
		})
	}
}

// dupSerials grants the same serial over and over.
type dupSerials struct{ n int64 }

func (s *dupSerials) Submit(controller.Request) (controller.Grant, error) {
	s.n++
	return controller.Grant{Outcome: controller.Granted, Serial: 1 + s.n%3}, nil
}

func TestOracleCatchesDuplicateAndOutOfRangeSerials(t *testing.T) {
	tr := buildTree(t, 8, 4)
	orc := oracle.Wrap(&dupSerials{}, tr, 100, 10, oracle.WithSerials())
	for i := 0; i < 7; i++ {
		if _, err := orc.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
			t.Fatal(err)
		}
	}
	if !hasViolation(orc.Violations(), "serial-unique") {
		t.Fatalf("duplicate serials not flagged: %v", orc.Violations())
	}

	orc2 := oracle.Wrap(&dupSerials{n: 1000}, tr, 2, 1, oracle.WithSerials())
	if _, err := orc2.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
		t.Fatal(err)
	}
	if !hasViolation(orc2.Violations(), "serial-range") {
		t.Fatalf("out-of-range serial not flagged: %v", orc2.Violations())
	}
}

// chattyTarget grants instantly while the fake transport burns messages.
type chattyTarget struct{ msgs *int64 }

func (s chattyTarget) Submit(controller.Request) (controller.Grant, error) {
	*s.msgs += 100_000
	return controller.Grant{Outcome: controller.Granted}, nil
}

func TestOracleCatchesMessageBudgetOverrun(t *testing.T) {
	tr := buildTree(t, 8, 5)
	var msgs int64
	orc := oracle.Wrap(chattyTarget{&msgs}, tr, 100, 10,
		oracle.WithMessages(func() int64 { return msgs }))
	if _, err := orc.Submit(controller.Request{Node: tr.Root(), Kind: tree.None}); err != nil {
		t.Fatal(err)
	}
	if !hasViolation(orc.Violations(), "message-budget") {
		t.Fatalf("100k messages for one request not flagged: %v", orc.Violations())
	}
}
