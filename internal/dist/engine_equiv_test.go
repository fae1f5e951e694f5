package dist_test

import (
	"reflect"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/sim"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// The driver half of the engine-equivalence table. One unknown-U driver runs
// under two execution models, and everything an observer can see of it must
// coincide: {centralized, distributed} × {Submit loop, SubmitBatch in
// chunks} × {uninterrupted, State → Restore at a mid-trace cut} all answer
// a trace with the same (outcome, serial, new node) sequence, hold the same
// driver State, whiteboard by whiteboard and store by store, after every
// request (every chunk, batched), end with the same tree, and differ only in
// what the transport costs.

// engine is one unknown-U controller under test with everything it runs on.
type engine struct {
	d  *controller.Dynamic
	tr *tree.Tree
	// runtimes lists every runtime the engine has used (a restored engine
	// starts a new one); empty for the centralized model.
	runtimes []*sim.Runtime
}

type engineTrace struct {
	name  string
	m, w  int64
	build func(t testing.TB) *tree.Tree
	mix   workload.Mix
	steps int
	// minSize keeps churn from shrinking the tree away.
	minSize int
	// fixedNodes draws every request's node from the initial tree, as the
	// gated benchmark's generator does, instead of from the tree as it is.
	fixedNodes bool
}

func balanced(n int, seed int64) func(testing.TB) *tree.Tree {
	return func(t testing.TB) *tree.Tree { return buildTree(t, n, seed) }
}

func path(n int) func(testing.TB) *tree.Tree {
	return func(t testing.TB) *tree.Tree {
		tr, _ := tree.New()
		if err := tree.Build(tr, tree.Shape{Kind: "path", Nodes: n}, 0); err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

func engineTraces() []engineTrace {
	return []engineTrace{
		{name: "events", m: 4096, w: 1024, build: balanced(64, 1), mix: workload.EventOnlyMix(), steps: 1500},
		{name: "churn", m: 4000, w: 500, build: balanced(48, 2), mix: workload.DefaultMix(), steps: 1500, minSize: 12},
		{name: "exhaust", m: 300, w: 60, build: balanced(32, 3), mix: workload.Mix{Event: 90, AddLeaf: 10}, steps: 900},
		// Events spread over a path strand static packages along it, so a
		// W = 0 iteration exhausts with permits left for the trivial tail.
		{name: "w0-tail", m: 600, w: 0, build: path(25), mix: workload.EventOnlyMix(), steps: 900},
	}
}

func newEngine(t testing.TB, distributed bool, tc engineTrace) *engine {
	t.Helper()
	e := &engine{tr: tc.build(t)}
	if distributed {
		rt := sim.NewDeterministic(7)
		e.runtimes = []*sim.Runtime{rt}
		e.d = dist.Over(rt).NewDynamic(e.tr, tc.m, tc.w)
	} else {
		e.d = controller.NewDynamic(e.tr, tc.m, tc.w)
	}
	return e
}

// restart captures the engine's whole state and continues on a restored
// copy that shares nothing with the original: a fresh tree, fresh counters
// and, distributed, a fresh runtime under another seed.
func (e *engine) restart(t *testing.T) {
	t.Helper()
	st, snap, counts := e.d.State(), e.tr.Snapshot(), e.d.Counters().Snapshot()
	e.tr, _ = tree.New()
	if err := e.tr.Restore(snap); err != nil {
		t.Fatal(err)
	}
	counters := stats.NewCounters()
	err := counters.Restore(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.runtimes) > 0 {
		rt := sim.NewDeterministic(int64(len(e.runtimes)) + 40)
		e.runtimes = append(e.runtimes, rt)
		e.d, err = dist.Over(rt).RestoreDynamic(e.tr, st, counters)
	} else {
		e.d, err = controller.Centralized.RestoreDynamic(e.tr, st, counters)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// messages is the distributed cost: control messages plus what every
// runtime delivered.
func (e *engine) messages() int64 {
	n := e.d.Counters().Get(stats.CounterControl)
	for _, rt := range e.runtimes {
		n += rt.Messages()
	}
	return n
}

// answer is one request's observable verdict.
type answer struct {
	grant  controller.Grant
	failed bool
}

// play answers reqs with a Submit loop or with SubmitBatch in chunks of a
// size that straddles every boundary of interest. check, when not nil, is
// called with the number of answers so far after every request, or after
// every chunk.
func (e *engine) play(reqs []controller.Request, batch bool, out []answer, check func(n int)) []answer {
	if !batch {
		for _, req := range reqs {
			g, err := e.d.Submit(req)
			out = append(out, answer{g, err != nil})
			if check != nil {
				check(len(out))
			}
		}
		return out
	}
	const chunk = 17
	var res []controller.BatchResult
	for len(reqs) > 0 {
		n := min(chunk, len(reqs))
		res = e.d.SubmitBatch(reqs[:n], res[:0])
		for _, r := range res {
			out = append(out, answer{r.Grant, r.Err != nil})
		}
		if check != nil {
			check(len(out))
		}
		reqs = reqs[n:]
	}
	return out
}

func testDriversMatchAcrossEngines(t *testing.T) {
	for _, tc := range engineTraces() {
		t.Run(tc.name, func(t *testing.T) {
			// The reference run is centralized, serial and uninterrupted; it
			// also records the trace, since the generator reads the tree the
			// engine mutates.
			ref := newEngine(t, false, tc)
			gen := workload.NewChurn(ref.tr, tc.mix, 99)
			if tc.minSize > 0 {
				gen.SetMinSize(tc.minSize)
			}
			var reqs []controller.Request
			var want []answer
			var wantStates []*controller.DynamicState // after each request
			tailAt, rejects := -1, 0
			for i := 0; i < tc.steps; i++ {
				req, ok := gen.Next()
				if !ok {
					break
				}
				reqs = append(reqs, req)
				want = ref.play(reqs[i:], false, want, nil)
				wantStates = append(wantStates, ref.d.State())
				if want[i].grant.Outcome == controller.Rejected {
					rejects++
				}
				if tailAt < 0 && tc.w == 0 && ref.d.State().Inner.TrivialPhase {
					tailAt = i
				}
			}
			// Cut mid-trace, or for W = 0 a few grants into the trivial tail.
			cut := len(reqs) / 2
			switch tc.name {
			case "churn":
				if ref.d.Iterations() < 2 {
					t.Fatalf("churn trace restarted the driver %d times; it should iterate", ref.d.Iterations())
				}
			case "exhaust":
				if rejects == 0 || rejects == len(reqs) {
					t.Fatalf("exhaust trace saw %d rejects of %d; the wave should fall mid-trace", rejects, len(reqs))
				}
			case "w0-tail":
				if tailAt < 0 || rejects == 0 {
					t.Fatalf("w0 trace: tail at %d, %d rejects; it should walk the tail into the wave", tailAt, rejects)
				}
				cut = tailAt + 3
			}
			wantState, wantTree := ref.d.State(), ref.tr.Snapshot()
			moves := ref.d.Counters().Get(stats.CounterMoves)
			distMessages := int64(-1)

			for _, distributed := range []bool{false, true} {
				for _, batch := range []bool{false, true} {
					for _, restored := range []bool{false, true} {
						name := "centralized"
						if distributed {
							name = "distributed"
						}
						if batch {
							name += "-batch"
						} else {
							name += "-submit"
						}
						if restored {
							name += "-restored"
						}
						t.Run(name, func(t *testing.T) {
							e := newEngine(t, distributed, tc)
							check := func(n int) {
								if st := e.d.State(); !reflect.DeepEqual(st, wantStates[n-1]) {
									t.Fatalf("state diverged at request %d (%+v):\n got %+v\nwant %+v",
										n-1, reqs[n-1], st.Inner.Board, wantStates[n-1].Inner.Board)
								}
							}
							got := e.play(reqs[:cut], batch, nil, check)
							if restored {
								e.restart(t)
							}
							got = e.play(reqs[cut:], batch, got, check)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("request %d (%+v): answered %+v, reference %+v", i, reqs[i], got[i], want[i])
								}
							}
							if st := e.d.State(); !reflect.DeepEqual(st, wantState) {
								t.Fatalf("driver state diverged:\n got %+v\nwant %+v", st, wantState)
							}
							if !reflect.DeepEqual(e.tr.Snapshot(), wantTree) {
								t.Fatal("trees diverged")
							}
							for _, name := range []stats.Counter{stats.CounterGrants, stats.CounterRejects,
								stats.CounterTopoChanges, stats.CounterIterations} {
								if got, want := e.d.Counters().Get(name), ref.d.Counters().Get(name); got != want {
									t.Fatalf("counter %s = %d, reference %d", name, got, want)
								}
							}
							if !distributed {
								if got := e.d.Counters().Get(stats.CounterMoves); got != moves || e.messages() != 0 {
									t.Fatalf("centralized cost: %d moves and %d messages, reference %d moves", got, e.messages(), moves)
								}
								return
							}
							msgs := e.messages()
							if e.d.Counters().Get(stats.CounterMoves) != 0 {
								t.Fatalf("distributed engine charged %d moves", e.d.Counters().Get(stats.CounterMoves))
							}
							if distMessages < 0 {
								distMessages = msgs
							}
							if msgs != distMessages {
								t.Fatalf("%d messages, the first distributed variant spent %d", msgs, distMessages)
							}
							if msgs < moves {
								t.Fatalf("messages %d below centralized moves %d", msgs, moves)
							}
							// The core's constant factor (Lemma 4.5), plus the
							// broadcast/upcast a restart costs only here: one per
							// inner and per outer iteration, each over at most
							// every node that ever existed.
							ever := int64(e.tr.EverExisted())
							restarts := e.d.Counters().Get(stats.CounterIterations) + int64(e.d.Iterations())
							if bound := 3*moves + 4*ever + 64 + 2*ever*restarts; msgs > bound {
								t.Fatalf("messages %d exceed constant-factor bound %d (moves %d, %d restarts)",
									msgs, bound, moves, restarts)
							}
						})
					}
				}
			}
		})
	}
}
