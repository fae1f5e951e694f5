package dist_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/estimator"
	"dynctrl/internal/heavychild"
	"dynctrl/internal/labeling"
	"dynctrl/internal/majority"
	"dynctrl/internal/naming"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// The application half of the engine-equivalence table. The protocols of
// Section 5 are written once over controller.Transport, so each runs the
// same churn trace over controller.Centralized and over dist.Over(rt), and
// after every request everything an observer can read off it must coincide:
// the verdict with its serial and new node, and the application's whole
// per-node state. What differs is what the transport costs, within the
// constant factor of Lemma 4.5.

// appRun is one application instance over one transport.
type appRun struct {
	submit func(controller.Request) (controller.Grant, error)
	// observe renders the application's observable state.
	observe func() string
	// counters is what the application counts its cost into.
	counters *stats.Counters
}

// appRow is one application of the table: start builds it over tr and tp.
type appRow struct {
	name  string
	start func(t *testing.T, tr *tree.Tree, tp controller.Transport) appRun
}

// perNode renders f at every live node, ascending.
func perNode(tr *tree.Tree, f func(tree.NodeID) string) string {
	var b strings.Builder
	for _, id := range tr.Nodes() {
		fmt.Fprintf(&b, "%d:%s ", id, f(id))
	}
	return b.String()
}

func appRows() []appRow {
	return []appRow{
		{"estimator", func(t *testing.T, tr *tree.Tree, tp controller.Transport) appRun {
			est, err := estimator.New(tr, tp, 2, estimator.WithSubtreeEstimates())
			if err != nil {
				t.Fatal(err)
			}
			return appRun{est.Submit, func() string {
				return fmt.Sprintf("iteration %d: ", est.Iteration()) + perNode(tr, func(v tree.NodeID) string {
					n, err1 := est.Estimate(v)
					sw, err2 := est.SubtreeEstimate(v)
					return fmt.Sprint(n, err1, sw, err2)
				})
			}, est.Counters()}
		}},
		{"naming", func(t *testing.T, tr *tree.Tree, tp controller.Transport) appRun {
			nm := naming.New(tr, tp)
			return appRun{nm.Submit, func() string {
				if err := nm.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("iteration %d: ", nm.Iteration()) + perNode(tr, func(v tree.NodeID) string {
					return fmt.Sprint(nm.ID(v))
				})
			}, nm.Counters()}
		}},
		{"heavychild", func(t *testing.T, tr *tree.Tree, tp controller.Transport) appRun {
			hc, err := heavychild.New(tr, tp)
			if err != nil {
				t.Fatal(err)
			}
			return appRun{hc.Submit, func() string {
				return fmt.Sprintf("iteration %d: ", hc.Estimator().Iteration()) + perNode(tr, func(v tree.NodeID) string {
					h, err1 := hc.Heavy(v)
					sw, err2 := hc.Estimator().SubtreeEstimate(v)
					return fmt.Sprint(h, err1 != nil, sw, err2)
				})
			}, hc.Counters()}
		}},
		{"labeling", func(t *testing.T, tr *tree.Tree, tp controller.Transport) appRun {
			dyn, err := labeling.NewDynamic(tr, tp, func(tr *tree.Tree) (labeling.Scheme, int64) {
				return labeling.BuildAncestry(tr), int64(tr.Size())
			})
			if err != nil {
				t.Fatal(err)
			}
			return appRun{dyn.Submit, func() string {
				n, err := dyn.Estimator().Estimate(tr.Root())
				return fmt.Sprintf("iteration %d, %d rebuilds, %d-bit labels, estimate %d %v",
					dyn.Estimator().Iteration(), dyn.Rebuilds(), dyn.Scheme().MaxBits(), n, err)
			}, dyn.Counters()}
		}},
	}
}

// checkCost holds the message-passing cost to the centralized one: never
// below it (a package crosses the same edges, one message each), and above
// it by the core's constant factor (Lemma 4.5) plus the broadcast/upcast
// that counting N_i costs only here, one per iteration, each over at most
// every node that ever existed.
func checkCost(t *testing.T, moves, msgs, ever, iterations int64) {
	t.Helper()
	if moves == 0 || msgs < moves {
		t.Fatalf("%d messages against %d centralized moves", msgs, moves)
	}
	if bound := 3*moves + 4*ever + 64 + 2*ever*iterations; msgs > bound {
		t.Fatalf("messages %d exceed constant-factor bound %d (moves %d, %d iterations)", msgs, bound, moves, iterations)
	}
}

func testApplicationsMatchAcrossEngines(t *testing.T) {
	for _, row := range appRows() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", row.name, seed), func(t *testing.T) {
				trC, trD := buildTree(t, 40, seed), buildTree(t, 40, seed)
				tpD := dist.Over(sim.NewDeterministic(seed))
				cen := row.start(t, trC, controller.Centralized)
				dst := row.start(t, trD, tpD)
				ctrC, ctrD := cen.counters, dst.counters
				if c, d := cen.observe(), dst.observe(); c != d {
					t.Fatalf("initial state diverged:\ncentralized %s\ndistributed %s", c, d)
				}
				gen := workload.NewChurn(trC, workload.DefaultMix(), seed+70)
				gen.SetMinSize(10)
				for i := 0; i < 600; i++ {
					req, ok := gen.Next()
					if !ok {
						break
					}
					gC, errC := cen.submit(req)
					gD, errD := dst.submit(req)
					if gC != gD || (errC == nil) != (errD == nil) {
						t.Fatalf("request %d (%+v): centralized %+v %v, distributed %+v %v", i, req, gC, errC, gD, errD)
					}
					if c, d := cen.observe(), dst.observe(); c != d {
						t.Fatalf("after request %d (%+v):\ncentralized %s\ndistributed %s", i, req, c, d)
					}
				}
				iterations := ctrC.Get(stats.CounterIterations)
				if iterations < 3 || iterations != ctrD.Get(stats.CounterIterations) {
					t.Fatalf("%d iterations centralized, %d distributed; the trace should restart the controller",
						iterations, ctrD.Get(stats.CounterIterations))
				}
				checkCost(t, controller.Centralized.Cost(ctrC), tpD.Cost(ctrD), int64(trD.EverExisted()), iterations)
			})
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("majority/seed%d", seed), func(t *testing.T) { testMajorityMatchesAcrossEngines(t, seed) })
	}
}

// testMajorityMatchesAcrossEngines wakes and retires entities in a seeded
// order until the root commits: both transports must admit the same joins
// under the same ids, refuse the same ones, and commit on the same join.
func testMajorityMatchesAcrossEngines(t *testing.T, seed int64) {
	const population = 60
	tpD := dist.Over(sim.NewDeterministic(seed))
	cen, trC, err := majority.New(population, controller.Centralized)
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := majority.New(population, tpD)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; !cen.Decided(); step++ {
		if step > 10*population {
			t.Fatal("the root never committed")
		}
		nodes := trC.Nodes()
		at := nodes[rng.Intn(len(nodes))]
		if at != trC.Root() && trC.IsLeaf(at) && rng.Intn(4) == 0 {
			if errC, errD := cen.Leave(at), dst.Leave(at); fmt.Sprint(errC) != fmt.Sprint(errD) {
				t.Fatalf("step %d: leave %d: centralized %v, distributed %v", step, at, errC, errD)
			}
		} else {
			idC, errC := cen.Join(at)
			idD, errD := dst.Join(at)
			if idC != idD || fmt.Sprint(errC) != fmt.Sprint(errD) {
				t.Fatalf("step %d: join under %d: centralized %d %v, distributed %d %v", step, at, idC, errC, idD, errD)
			}
		}
		if cen.Decided() != dst.Decided() || cen.Joins() != dst.Joins() || cen.Awake() != dst.Awake() {
			t.Fatalf("step %d: centralized decided=%v joins=%d awake=%d, distributed decided=%v joins=%d awake=%d",
				step, cen.Decided(), cen.Joins(), cen.Awake(), dst.Decided(), dst.Joins(), dst.Awake())
		}
	}
	if cen.Joins() != population/2 {
		t.Fatalf("committed after %d joins, threshold %d", cen.Joins(), population/2)
	}
	iterations := cen.Counters().Get(stats.CounterIterations)
	if iterations != dst.Counters().Get(stats.CounterIterations) {
		t.Fatalf("%d iterations centralized, %d distributed", iterations, dst.Counters().Get(stats.CounterIterations))
	}
	checkCost(t, cen.Messages(), dst.Messages(), population, iterations)
}
