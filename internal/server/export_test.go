package server

import (
	"context"

	"dynctrl/internal/persist"
)

// CrashForTests simulates a kill -9 for the recovery tests: listeners and
// connections are cut, the serve goroutines run out (their clients may or
// may not have seen the replies — exactly the crash ambiguity), and every
// tenant's WAL engine is abandoned without a final checkpoint, dropping
// anything not yet fsynced.
func (s *Server) CrashForTests() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
	for _, name := range s.order {
		if tn := s.tenants[name]; tn.eng != nil {
			tn.eng.Abandon()
		}
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}

// ControllerGranted exposes the first tenant's controller grant total.
func (s *Server) ControllerGranted() int64 {
	return s.TenantControllerGranted(s.order[0])
}

// TenantControllerGranted exposes the named tenant's controller grant
// total for tests.
func (s *Server) TenantControllerGranted(name string) (granted int64) {
	tn := s.tenants[name]
	tn.locked(func() { granted = tn.ctl.Granted() })
	return granted
}

// locked runs fn holding the tenant's lock: the tests' one way to engine
// state that engineView does not carry.
func (t *tenant) locked(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// ShutdownGraceful is a test convenience wrapper.
func (s *Server) ShutdownGraceful(ctx context.Context) error { return s.Shutdown(ctx) }

// EngineStatsForTests samples the first tenant's WAL engine counters
// (zero without WAL).
func (s *Server) EngineStatsForTests() (st persist.Stats) {
	if tn := s.defaultTenant(); tn.eng != nil {
		st = tn.eng.StatsSnapshot()
	}
	return st
}

// RecoveredEffectsForTests returns how many logged effects the first
// tenant's boot replayed (and verified) through its controller.
func (s *Server) RecoveredEffectsForTests() int { return s.defaultTenant().recoveredEffects }

// RunStatsForTests samples the first tenant's (runs executed, requests they
// carried).
func (s *Server) RunStatsForTests() (runs, reqs int64) {
	ev := s.defaultTenant().engineView()
	return ev.runs, ev.runReqs
}

// ConnLifecycleForTests samples the first tenant's (connsOpen,
// connsTotal, idleTimeouts) for the lifecycle tests.
func (s *Server) ConnLifecycleForTests() (open, total, idle int64) {
	tn := s.defaultTenant()
	return tn.connsOpen.Load(), tn.connsTotal.Load(), tn.idleTimeouts.Load()
}
