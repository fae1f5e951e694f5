package server

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
	if s.httpd != nil {
		s.httpd.close()
	}
}
