package persist

import (
	"fmt"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/oracle"
	"dynctrl/internal/stats"
	"dynctrl/internal/tree"
)

// Recover continues the admission stack Open found in rec, under the
// (m, w) contract, and builds the controller it returns. Without a
// snapshot that is tp.NewDynamic over tr, which must hold the initial
// topology the log starts from. With one, it refuses a snapshot taken under
// another contract, restores tr in place (so whatever holds the *Tree sees
// the recovered topology) and validates it, and rebuilds the controller
// from the snapshot over tp, counting into a new set that holds the
// snapshot's counts. Then it replays the tail through the controller, and
// returns that controller and the number of effects replayed. Read the
// counts from the returned controller's Counters.
//
// The daemon recovers over controller.Centralized and the scenario runner
// over dist.Over(rt), a runtime whose schedule seed need not match the
// crashed process's: the two produce identical verdicts and states and the
// distributed one is delivery-schedule invariant (the engine-equivalence
// table and the scenario suite pin both), so replay is deterministic
// without persisting transport state.
func Recover(rec *Recovery, tp controller.Transport, m, w int64, tr *tree.Tree) (*controller.Dynamic, int, error) {
	var ctl *controller.Dynamic
	if st := rec.Snapshot; st == nil {
		ctl = tp.NewDynamic(tr, m, w)
	} else {
		if st.M != m || st.W != w {
			return nil, 0, fmt.Errorf("persist: snapshot was taken under (M=%d, W=%d), recovering under (M=%d, W=%d)",
				st.M, st.W, m, w)
		}
		counters, err := restoreInto(st, tr)
		if err != nil {
			return nil, 0, err
		}
		if ctl, err = tp.RestoreDynamic(tr, st.Ctl, counters); err != nil {
			return nil, 0, err
		}
	}
	applied, err := Replay(rec.Tail, ctl)
	if err != nil {
		return nil, applied, err
	}
	return ctl, applied, nil
}

// restoreInto restores tr in place to the snapshot's, and returns a new
// counter set holding the snapshot's counts.
func restoreInto(st *State, tr *tree.Tree) (*stats.Counters, error) {
	if st.Tree == nil || st.Ctl == nil {
		return nil, fmt.Errorf("persist: snapshot missing tree or controller state")
	}
	if err := tr.Restore(st.Tree); err != nil {
		return nil, fmt.Errorf("persist: restore tree: %w", err)
	}
	counters := stats.NewCounters()
	if err := counters.Restore(st.Counters); err != nil {
		return nil, fmt.Errorf("persist: restore counters: %w", err)
	}
	return counters, nil
}

// Replay re-submits the tail's effect records through sub in log order and
// verifies every verdict — outcome, serial and created node id — matches
// what the log recorded. The controller is deterministic given its state
// and the request sequence, so any mismatch means the snapshot, the log
// and the code disagree, and recovery must fail rather than continue from
// a state that has silently diverged. It returns the number of effects
// applied.
func Replay(tail []Record, sub controller.Submitter) (int, error) {
	applied := 0
	for _, r := range tail {
		if r.Type != RecEffect {
			continue
		}
		g, err := sub.Submit(r.request())
		if err != nil {
			return applied, fmt.Errorf("persist: replay index %d (%v at node %d): %w",
				r.Index, r.Kind, r.Node, err)
		}
		if g.Outcome != r.Outcome || g.Serial != r.Serial || g.NewNode != r.NewNode {
			return applied, fmt.Errorf("persist: replay diverged at index %d: log says %v/serial %d/node %d, controller answered %v/serial %d/node %d",
				r.Index, r.Outcome, r.Serial, r.NewNode, g.Outcome, g.Serial, g.NewNode)
		}
		applied++
	}
	return applied, nil
}

// IncarnationEffects is the record history one incarnation wrote.
type IncarnationEffects struct {
	Incarnation uint64
	Records     []Record
}

// ReadHistory scans every segment in dir and returns the full record
// history grouped by the incarnation that wrote it, in log order. It
// applies the same crash-artifact policy as boot recovery (shared
// scanSegments: headerless segments skipped, a torn tail in the final
// segment tolerated — though the audit never truncates on disk,
// corruption anywhere else refused), so the audit and recovery can never
// accept different histories.
func ReadHistory(dir string) ([]IncarnationEffects, error) {
	scans, _, _, err := scanSegments(dir, false, obs.NopLogger())
	if err != nil {
		return nil, err
	}
	var out []IncarnationEffects
	for _, sr := range scans {
		if len(out) == 0 || out[len(out)-1].Incarnation != sr.incarnation {
			out = append(out, IncarnationEffects{Incarnation: sr.incarnation})
		}
		last := &out[len(out)-1]
		last.Records = append(last.Records, sr.records...)
	}
	return out, nil
}

// summaries projects a record history onto the oracle's cross-incarnation
// vocabulary: per incarnation, the grant/reject totals, every explicit
// serial granted, and the covered WAL index range.
func summaries(history []IncarnationEffects) []oracle.IncarnationSummary {
	out := make([]oracle.IncarnationSummary, 0, len(history))
	for _, inc := range history {
		s := oracle.IncarnationSummary{Incarnation: inc.Incarnation}
		for _, r := range inc.Records {
			if s.FirstIndex == 0 && r.Index > 0 {
				s.FirstIndex = r.Index
			}
			s.LastIndex = r.Index
			if r.Type != RecEffect {
				continue
			}
			switch r.Outcome {
			case controller.Granted:
				s.Granted++
				if r.Serial != 0 {
					s.Serials = append(s.Serials, r.Serial)
				}
			case controller.Rejected:
				s.Rejected++
			}
		}
		out = append(out, s)
	}
	return out
}

// VerifyDir runs the cross-incarnation invariant checks over dir's whole
// retained history against the (m, w) contract. It returns the summaries
// and any violations found.
func VerifyDir(dir string, m int64) ([]oracle.IncarnationSummary, []oracle.Violation, error) {
	history, err := ReadHistory(dir)
	if err != nil {
		return nil, nil, err
	}
	sums := summaries(history)
	return sums, oracle.CheckCrossIncarnations(m, sums), nil
}
