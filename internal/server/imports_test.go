package server_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingPathImportsNoSimulator: the daemon serves with the
// centralized engine under one lock per tenant, so nothing it links — the
// non-test import closure of cmd/dynctrld, what `go list -deps
// ./cmd/dynctrld` prints — may be the message-passing engine, the simulator
// it runs over, the fault proxy or the library's pipeline (a second lock
// around the engine).
func TestServingPathImportsNoSimulator(t *testing.T) {
	const module = "dynctrl/"
	banned := map[string]bool{
		module + "internal/sim":      true,
		module + "internal/dist":     true,
		module + "internal/faultnet": true,
		module + "internal/pipeline": true,
	}
	// via[p] is the package that first pulled p in.
	via := map[string]string{module + "cmd/dynctrld": ""}
	queue := []string{module + "cmd/dynctrld"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports { // non-test files only
			if _, seen := via[imp]; seen || !strings.HasPrefix(imp, module) {
				continue
			}
			via[imp] = path
			queue = append(queue, imp)
		}
	}
	for imp := range banned {
		if _, linked := via[imp]; !linked {
			continue
		}
		chain := imp
		for p := via[imp]; p != ""; p = via[p] {
			chain = p + " → " + chain
		}
		t.Errorf("the daemon links %s: %s", imp, chain)
	}
}
