package server_test

import (
	"go/build"
	"path/filepath"
	"testing"
)

// TestServingPathImportsNoSimulator: the daemon serves with the
// centralized engine, so the packages on its serving path — the command,
// this package and the durability engine — must not import the
// message-passing engine or the simulator it runs over, outside tests. The
// check is on direct imports (what `go list -f '{{.Imports}}'` prints): the
// transitive closure cannot be the test while internal/workload, which the
// daemon needs for BuildTopology, also holds the dist-driven scenario
// engine.
func TestServingPathImportsNoSimulator(t *testing.T) {
	banned := map[string]bool{"dynctrl/internal/sim": true, "dynctrl/internal/dist": true}
	for _, dir := range []string{"../../cmd/dynctrld", ".", "../persist"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports { // non-test files only
			if banned[imp] {
				abs, _ := filepath.Abs(dir)
				t.Errorf("%s imports %s: the simulator is back on the serving path", abs, imp)
			}
		}
	}
}
