// Command dynctrld runs the network-facing admission-control daemon: a TCP
// server exposing the (M,W)-Controller's Submit/grant/reject semantics over
// the internal/wire protocol, one lock per tenant around its controller,
// with an optional paranoid mode that re-checks every served request
// against the paper's invariants via internal/oracle.
//
// Usage:
//
//	dynctrld -addr :7700 -metrics :7701 -nodes 256 -m 1000000 -w 500000
//	dynctrld -topology balanced -nodes 48 -m 120 -w 60 -paranoid
//
// A tenant's initial tree is tree.Build of its -topology/-nodes shape and
// -seed, so a cmd/loadgen given the same shape and seed reconstructs the
// identical tree (the wire handshake verifies this via the tree's
// signature).
//
// The daemon serves one or more isolated tenant namespaces. The top-level
// -topology/-nodes/-seed/-m/-w flags declare the default namespace, which
// is served when no -tenant flag is given. Each repeatable -tenant flag
// declares one namespace with its own contract and topology:
//
//	dynctrld -tenant team-a,m=500000,w=250000,nodes=128 \
//	         -tenant team-b,m=1000,w=100,topology=star,nodes=16
//
// The spec is name[,key=value,...] with keys topology, nodes, seed, m, w;
// unspecified keys inherit the top-level flags. Clients name their
// namespace in the wire handshake and can never touch any other.
//
// With -wal-dir the daemon is durable: every tenant logs decided batches
// to its own subdirectory (<wal-dir>/<tenant>) of the internal/persist
// write-ahead log (group commit: results are not released until their
// records are fsynced), the full state is checkpointed every
// -snapshot-every effects and on graceful shutdown, and a restart
// recovers every tenant's admission state — the (M, W) contracts span
// incarnations. `dynctrld -wal-dir DIR -verify-wal` audits an existing
// directory offline, tenant by tenant: it replays each retained history
// through the cross-incarnation oracle (no serial reused, granted ≤ M
// summed across restarts) and exits nonzero on any violation.
//
// On SIGINT/SIGTERM the daemon drains gracefully — in-flight batches are
// answered before the tenants close — then prints a final accounting
// line. The exit status is nonzero if paranoid mode recorded any oracle
// violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynctrl/internal/obs"
	"dynctrl/internal/persist"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
)

// tenantFlags collects the repeatable -tenant specs.
type tenantFlags []string

func (t *tenantFlags) String() string     { return strings.Join(*t, "; ") }
func (t *tenantFlags) Set(v string) error { *t = append(*t, v); return nil }

// parseTenantSpec parses one -tenant value, name[,key=value,...], with
// unspecified keys inherited from the default (top-level-flag) config.
func parseTenantSpec(spec string, def server.TenantConfig) (server.TenantConfig, error) {
	parts := strings.Split(spec, ",")
	tc := def
	tc.Name = parts[0]
	if !wire.ValidTenant(tc.Name) {
		return tc, fmt.Errorf("invalid tenant name %q", tc.Name)
	}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return tc, fmt.Errorf("tenant %q: malformed option %q (want key=value)", tc.Name, kv)
		}
		var err error
		switch k {
		case "topology":
			tc.Topology.Kind = v
		case "nodes":
			tc.Topology.Nodes, err = strconv.Atoi(v)
		case "seed":
			tc.Seed, err = strconv.ParseInt(v, 10, 64)
		case "m":
			tc.M, err = strconv.ParseInt(v, 10, 64)
		case "w":
			tc.W, err = strconv.ParseInt(v, 10, 64)
		default:
			return tc, fmt.Errorf("tenant %q: unknown option %q", tc.Name, k)
		}
		if err != nil {
			return tc, fmt.Errorf("tenant %q: option %q: %v", tc.Name, kv, err)
		}
	}
	return tc, nil
}

func main() {
	addr := flag.String("addr", ":7700", "wire-protocol listen address")
	metrics := flag.String("metrics", ":7701", "plain-text /metricsz listen address (empty disables)")
	topology := flag.String("topology", "balanced", "initial tree shape: balanced, path, or star")
	nodes := flag.Int("nodes", 256, "initial tree size")
	seed := flag.Int64("seed", 1, "topology seed")
	m := flag.Int64("m", 1_000_000, "permit bound M of the admission contract")
	w := flag.Int64("w", 500_000, "waste bound W of the admission contract")
	paranoid := flag.Bool("paranoid", false, "re-check every served request with the internal/oracle invariant checkers")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain bound")
	idleTimeout := flag.Duration("idle-timeout", 0, "per-connection idle read deadline, re-armed before every frame (0 disables; dribbling peers are reaped after this long without a complete frame)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory; enables durability and boot-time recovery")
	snapshotEvery := flag.Int64("snapshot-every", 0, "checkpoint the full state every n logged effects (0 = default, <0 disables)")
	verifyWAL := flag.Bool("verify-wal", false, "audit -wal-dir with the cross-incarnation oracle and exit")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	traceRing := flag.Int("trace-ring", 0, "per-tenant batch-trace ring size for /tracez (0 = default, <0 disables tracing and stage histograms)")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof/ on the metrics listener")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "serve this tenant namespace: name[,key=value,...] with keys topology, nodes, seed, m, w (repeatable; unset keys inherit the top-level flags)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("-log-level: %v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fatalf("-log-format: %v", err)
	}

	cfg := server.Config{
		Addr:        *addr,
		MetricsAddr: *metrics,
		Paranoid:    *paranoid,
		IdleTimeout: *idleTimeout,
	}
	cfg.WALDir = *walDir
	cfg.SnapshotEvery = *snapshotEvery
	cfg.Logger = logger
	cfg.TraceRing = *traceRing
	cfg.Pprof = *pprofOn
	// The top-level flags declare the default namespace, and what every
	// -tenant spec leaves unset.
	def := server.TenantConfig{
		Name:     wire.DefaultTenant,
		Topology: tree.Shape{Kind: *topology, Nodes: *nodes},
		Seed:     *seed,
		M:        *m,
		W:        *w,
	}
	for _, spec := range tenants {
		tc, err := parseTenantSpec(spec, def)
		if err != nil {
			fatalf("-tenant: %v", err)
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []server.TenantConfig{def}
	}

	if *verifyWAL {
		if cfg.WALDir == "" {
			fatalf("-verify-wal requires -wal-dir")
		}
		mExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "m" {
				mExplicit = true
			}
		})
		// Every tenant logs under its own subdirectory of the WAL root;
		// audit each namespace independently.
		dirs, err := tenantWALDirs(cfg.WALDir)
		if err != nil {
			fatalf("%v", err)
		}
		failed := false
		for _, name := range dirs {
			dir := filepath.Join(cfg.WALDir, name)
			// Audit against the contract the history was actually written
			// under: the latest snapshot records it. An explicit -m
			// overrides (for directories that never checkpointed), but a
			// mismatch is called out rather than silently trusted.
			verifyM := def.M
			if st, err := persist.ReadLatestSnapshot(dir); err != nil {
				fatalf("tenant %q: read snapshot contract: %v", name, err)
			} else if st != nil {
				if mExplicit && st.M != def.M {
					logf("tenant %q: warning: -m %d differs from the snapshot contract M=%d; auditing against -m", name, def.M, st.M)
				} else {
					verifyM = st.M
					logf("tenant %q: auditing against the snapshot contract (M=%d, W=%d)", name, st.M, st.W)
				}
			} else if !mExplicit {
				logf("tenant %q: warning: no snapshot records the contract; auditing against the default -m %d", name, def.M)
			}
			if !verifyWALDir(name, dir, verifyM) {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	s, err := server.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := s.Start(); err != nil {
		fatalf("%v", err)
	}
	logger.Info("wire protocol", "version", wire.Version, "addr", s.Addr())
	for _, v := range s.Tenants() {
		logger.Info("tenant up", "tenant", v.Name,
			"topology_signature", v.TopologySignature, "incarnation", v.Incarnation)
	}
	if s.MetricsAddr() != "" {
		logger.Info("metrics endpoint", "url", "http://"+s.MetricsAddr()+"/metricsz", "pprof", *pprofOn)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("signal received", "signal", got.String(), "drain_timeout", drain.String())

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	var total server.TenantView
	for _, v := range s.Tenants() {
		logger.Info("tenant accounting", "tenant", v.Name,
			"ops", v.Ops, "grants", v.Grants, "rejects", v.Rejects, "errors", v.Errors)
		for _, viol := range v.Violations {
			logger.Error("oracle violation", "tenant", v.Name, "violation", viol.String())
		}
		total.Ops += v.Ops
		total.Grants += v.Grants
		total.Rejects += v.Rejects
		total.Errors += v.Errors
		total.Violations = append(total.Violations, v.Violations...)
	}
	logger.Info("final accounting",
		"ops", total.Ops, "grants", total.Grants, "rejects", total.Rejects, "errors", total.Errors)
	if len(total.Violations) != 0 {
		os.Exit(1)
	}
}

// tenantWALDirs lists the tenant subdirectories of the WAL root, sorted.
// A root with loose WAL files and no subdirectories predates tenancy and
// is rejected with a pointer at the per-tenant layout.
func tenantWALDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var names []string
	loose := false
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		} else {
			loose = true
		}
	}
	if len(names) == 0 {
		if loose {
			return nil, fmt.Errorf("%s holds a pre-tenancy flat WAL; move its files into %s to audit it",
				root, filepath.Join(root, wire.DefaultTenant))
		}
		return nil, fmt.Errorf("%s holds no tenant WAL directories", root)
	}
	sort.Strings(names)
	return names, nil
}

// verifyWALDir audits one tenant's retained WAL history against the
// contract and reports whether every cross-incarnation invariant holds.
func verifyWALDir(tenant, dir string, m int64) bool {
	sums, violations, err := persist.VerifyDir(dir, m)
	if err != nil {
		fatalf("verify %s: %v", dir, err)
	}
	var granted, rejected int64
	for _, s := range sums {
		logf("tenant %q: incarnation %d: granted=%d rejected=%d wal=[%d, %d]",
			tenant, s.Incarnation, s.Granted, s.Rejected, s.FirstIndex, s.LastIndex)
		granted += s.Granted
		rejected += s.Rejected
	}
	logf("tenant %q: history: %d incarnations, granted=%d (M=%d), rejected=%d", tenant, len(sums), granted, m, rejected)
	if len(violations) != 0 {
		for _, v := range violations {
			logf("tenant %q: CROSS-INCARNATION VIOLATION: %v", tenant, v)
		}
		return false
	}
	logf("tenant %q: cross-incarnation invariants hold", tenant)
	return true
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dynctrld: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
