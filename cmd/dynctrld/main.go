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
// With -wal-dir every tenant is durable and recovers at boot, and
// `dynctrld -wal-dir DIR -verify-wal` audits DIR offline and exits
// (docs/OPERATIONS.md §4–§6).
//
// On SIGINT/SIGTERM the daemon drains gracefully — in-flight batches are
// answered before the tenants close — then prints a final accounting
// line. The exit status is nonzero if paranoid mode recorded any oracle
// violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
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
	fatal := func(err error) {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
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
			fatal(fmt.Errorf("-tenant: %w", err))
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}

	if *verifyWAL {
		if cfg.WALDir == "" {
			fatal(errors.New("-verify-wal requires -wal-dir"))
		}
		mExplicit := false
		flag.Visit(func(f *flag.Flag) { mExplicit = mExplicit || f.Name == "m" })
		// Only the -tenant flags declare here: the default namespace is
		// not appended yet.
		held, err := auditWAL(logger, cfg.WALDir, cfg.Tenants, def.M, mExplicit)
		if err != nil {
			logger.Error("wal audit failed", "err", err)
		}
		if err != nil || !held {
			os.Exit(1)
		}
		return
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []server.TenantConfig{def}
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := s.Start(); err != nil {
		fatal(err)
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

// auditWAL is -verify-wal: it replays every tenant directory under root
// through the cross-incarnation oracle and reports whether all of them hold.
// A tenant that a -tenant flag declares is held to the M its spec resolves
// to, the contract the daemon would serve it under. Any other directory is
// held to its latest snapshot's M, or to the top-level -m (flagM) when that
// was given explicitly or no snapshot records a contract. A snapshot that
// records another M than the one audited against is warned about.
func auditWAL(logger *slog.Logger, root string, declared []server.TenantConfig, flagM int64, mExplicit bool) (bool, error) {
	dirs, err := tenantWALDirs(root)
	if err != nil {
		return false, err
	}
	held := true
	for _, name := range dirs {
		dir := filepath.Join(root, name)
		snap, err := persist.ReadLatestSnapshot(dir)
		if err != nil {
			return false, fmt.Errorf("tenant %q: read snapshot contract: %w", name, err)
		}
		m, from := flagM, "-m"
		if i := slices.IndexFunc(declared, func(tc server.TenantConfig) bool { return tc.Name == name }); i >= 0 {
			m, from = declared[i].M, "tenant spec"
		} else if snap != nil && !mExplicit {
			m, from = snap.M, "snapshot"
		} else if snap == nil {
			logger.Warn("no snapshot records the contract", "tenant", name, "m", m)
		}
		if snap != nil && snap.M != m {
			logger.Warn("audit contract differs from the snapshot", "tenant", name, "m", m, "snapshot_m", snap.M)
		}
		logger.Info("auditing tenant", "tenant", name, "m", m, "from", from)
		sums, violations, err := persist.VerifyDir(dir, m)
		if err != nil {
			return false, fmt.Errorf("verify %s: %w", dir, err)
		}
		var granted, rejected int64
		for _, s := range sums {
			logger.Info("incarnation audited", "tenant", name, "incarnation", s.Incarnation,
				"granted", s.Granted, "rejected", s.Rejected, "first_index", s.FirstIndex, "last_index", s.LastIndex)
			granted += s.Granted
			rejected += s.Rejected
		}
		logger.Info("history audited", "tenant", name, "incarnations", len(sums),
			"granted", granted, "m", m, "rejected", rejected)
		for _, v := range violations {
			logger.Error("cross-incarnation violation", "tenant", name, "violation", v.String())
		}
		if len(violations) != 0 {
			held = false
			continue
		}
		logger.Info("cross-incarnation invariants hold", "tenant", name)
	}
	return held, nil
}

// fatalf reports an error found before the structured logger exists and
// exits.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dynctrld: "+format+"\n", args...)
	os.Exit(1)
}
