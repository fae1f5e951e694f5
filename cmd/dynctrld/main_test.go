package main

import (
	"bytes"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/persist"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
)

// A tenant that a -tenant flag declares is audited against the M its spec
// resolves to, not against the top-level -m: a never-checkpointed history
// in which tenant a granted 600 permits breaks a,m=500 and holds under
// a,m=1000, although the top-level -m (1 000 000) would pass both.
func TestVerifyWALHoldsDeclaredTenantToItsSpec(t *testing.T) {
	root := t.TempDir()
	eng, _, err := persist.Open(filepath.Join(root, "a"), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]controller.Request, 600)
	results := make([]controller.BatchResult, len(reqs))
	for i := range reqs {
		reqs[i] = controller.Request{Node: 1, Kind: tree.None}
		results[i].Grant.Outcome = controller.Granted
	}
	if err := eng.CommitEffects(reqs, results); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		m    int64
		held bool
	}{{500, false}, {1000, true}} {
		var log bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&log, nil))
		declared := []server.TenantConfig{{Name: "a", M: c.m}}
		held, err := auditWAL(logger, root, declared, 1_000_000, false)
		if err != nil {
			t.Fatalf("m=%d: %v", c.m, err)
		}
		if held != c.held {
			t.Errorf("a,m=%d: audit held=%v, want %v; log:\n%s", c.m, held, c.held, log.String())
		}
		if !strings.Contains(log.String(), `msg="auditing tenant" tenant=a m=`) ||
			!strings.Contains(log.String(), "from=\"tenant spec\"") {
			t.Errorf("a,m=%d: the audit did not report the tenant spec as its contract:\n%s", c.m, log.String())
		}
	}
}
