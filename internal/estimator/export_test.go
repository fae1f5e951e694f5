package estimator

import "dynctrl/internal/tree"

// Omega0 returns ω₀(v), the size of v's subtree counted when the current
// iteration started, and whether v was in the tree then.
func (e *Estimator) Omega0(v tree.NodeID) (int64, bool) {
	w, ok := e.omega0[v]
	return w, ok
}
