package oracle_test

import (
	"strings"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/oracle"
	"dynctrl/internal/tree"
)

func invariants(vs []oracle.Violation) string {
	var names []string
	for _, v := range vs {
		names = append(names, v.Invariant)
	}
	return strings.Join(names, ",")
}

func TestCheckCrossIncarnationsClean(t *testing.T) {
	vs := oracle.CheckCrossIncarnations(100, []oracle.IncarnationSummary{
		{Incarnation: 1, Granted: 40, Serials: []int64{1, 2, 3}, FirstIndex: 1, LastIndex: 45},
		{Incarnation: 2, Granted: 60, Serials: []int64{4, 5}, FirstIndex: 46, LastIndex: 110},
	})
	if len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestCheckCrossIncarnationsSafetySum(t *testing.T) {
	vs := oracle.CheckCrossIncarnations(100, []oracle.IncarnationSummary{
		{Incarnation: 1, Granted: 70, FirstIndex: 1, LastIndex: 70},
		{Incarnation: 2, Granted: 70, FirstIndex: 71, LastIndex: 140},
	})
	if !strings.Contains(invariants(vs), "xinc-safety-counter") {
		t.Fatalf("granted sum 140 > M=100 not flagged: %v", vs)
	}
}

func TestCheckCrossIncarnationsSerialReuse(t *testing.T) {
	vs := oracle.CheckCrossIncarnations(100, []oracle.IncarnationSummary{
		{Incarnation: 1, Granted: 2, Serials: []int64{7, 8}, FirstIndex: 1, LastIndex: 2},
		{Incarnation: 2, Granted: 2, Serials: []int64{8, 9}, FirstIndex: 3, LastIndex: 4},
	})
	if !strings.Contains(invariants(vs), "xinc-serial-unique") {
		t.Fatalf("serial 8 reuse across incarnations not flagged: %v", vs)
	}
	vs = oracle.CheckCrossIncarnations(5, []oracle.IncarnationSummary{
		{Incarnation: 1, Granted: 1, Serials: []int64{9}, FirstIndex: 1, LastIndex: 1},
	})
	if !strings.Contains(invariants(vs), "xinc-serial-range") {
		t.Fatalf("serial 9 > M=5 not flagged: %v", vs)
	}
}

func TestCheckCrossIncarnationsForkedHistory(t *testing.T) {
	vs := oracle.CheckCrossIncarnations(100, []oracle.IncarnationSummary{
		{Incarnation: 1, Granted: 10, FirstIndex: 1, LastIndex: 30},
		{Incarnation: 2, Granted: 10, FirstIndex: 20, LastIndex: 50}, // overlaps
	})
	if !strings.Contains(invariants(vs), "xinc-monotonic") {
		t.Fatalf("overlapping WAL ranges not flagged: %v", vs)
	}
	vs = oracle.CheckCrossIncarnations(100, []oracle.IncarnationSummary{
		{Incarnation: 3, FirstIndex: 1, LastIndex: 2},
		{Incarnation: 3, FirstIndex: 3, LastIndex: 4},
	})
	if !strings.Contains(invariants(vs), "xinc-monotonic") {
		t.Fatalf("repeated incarnation number not flagged: %v", vs)
	}
}

// alwaysGrant grants every request.
type alwaysGrant struct{}

func (alwaysGrant) Submit(controller.Request) (controller.Grant, error) {
	return controller.Grant{Outcome: controller.Granted}, nil
}

func TestWithBaselineResumesSafetyCounter(t *testing.T) {
	// A recovered oracle seeded with 95 prior grants must flag the 6th new
	// grant against M=100.
	tr, root := tree.New()
	o := oracle.Wrap(alwaysGrant{}, tr, 100, 10, oracle.WithBaseline(95, 0))
	for i := 0; i < 6; i++ {
		if _, err := o.Submit(controller.Request{Node: root, Kind: tree.None}); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(invariants(o.Violations()), "safety-counter") {
		t.Fatalf("cross-restart safety overflow not flagged: %v", o.Violations())
	}
}
