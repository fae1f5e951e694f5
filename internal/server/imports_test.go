package server_test

import (
	"go/build"
	"os"
	"os/exec"
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
// Nor net or os/user: both carry a cgo half (the resolver, the user
// lookup), so either one links runtime/cgo and, through it, libc and the
// dynamic loader into the default CGO_ENABLED=1 build. The listeners are
// internal/wire's syscall sockets; `go list -deps` with CGO_ENABLED=1 must
// show no runtime/cgo.
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
		"net":                        true,
		"os/user":                    true,
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

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to list the daemon's dependencies: %v", err)
	}
	cmd := exec.Command(goTool, "list", "-deps", module+"cmd/dynctrld")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, p := range strings.Fields(string(out)) {
		if p == "runtime/cgo" {
			t.Error("with CGO_ENABLED=1 the daemon links runtime/cgo, and with it libc")
		}
	}
}
