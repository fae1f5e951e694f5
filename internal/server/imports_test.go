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
// it runs over, the fault proxy, the library's pipeline (a second lock
// around the engine) or the workload generators (a tenant's initial tree is
// tree.Build's). Nor may a package of the module in that closure import an
// HTTP or TLS stack: the metrics listener is the responder in http.go, and
// net/http would link half the binary again, crypto/tls and x509 with it.
func TestServingPathImportsNoSimulator(t *testing.T) {
	const module = "dynctrl/"
	banned := map[string]bool{
		module + "internal/sim":      true,
		module + "internal/dist":     true,
		module + "internal/faultnet": true,
		module + "internal/pipeline": true,
		module + "internal/workload": true,
		"net/http":                   true,
		"net/http/pprof":             true,
		"crypto/tls":                 true,
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
			if _, seen := via[imp]; seen {
				continue
			}
			if strings.HasPrefix(imp, module) {
				via[imp] = path
				queue = append(queue, imp)
			} else if banned[imp] {
				via[imp] = path // a standard package: its own imports are not walked
			}
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
