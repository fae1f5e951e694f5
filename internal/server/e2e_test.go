package server

import (
	"context"
	"testing"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/workload"
)

// TestEndToEndScenariosOverLoopback is the network-boundary counterpart of
// the in-process scenario engine: it starts the daemon on a loopback
// listener in paranoid mode (every served request re-checked by the
// oracle), replays the wire projection of two catalog scenarios through the
// pooled client with 8 concurrent connections, and requires an oracle-clean
// trace, total granted within the contract's M, and exact agreement between
// the client-observed and server-accounted outcome totals. Run with -race
// in CI, this is the test that exercises reader goroutines, pipelined
// correlation, read-batching, the tenant's lock and the controller under
// real concurrency at once.
func TestEndToEndScenariosOverLoopback(t *testing.T) {
	const conns = 8
	const seed = 1

	for _, name := range []string{"churn-storm", "exhaustion-reject-wave"} {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.ScenarioByName(name)
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			total := sc.Requests
			if !testing.Short() {
				total *= 2 // push past the pinned count so exhaustion scenarios reject
			}

			s := startServer(t, Config{
				Tenants:  oneTenant(sc.Topology, seed, sc.M, sc.W),
				Paranoid: true,
			})

			// The client half: reconstruct the topology and pre-generate the
			// interleaving-safe trace, then verify both sides built the same
			// tree before replaying a single request.
			tr, ct, err := workload.WireTrace(sc, conns, total, seed)
			if err != nil {
				t.Fatalf("WireTrace: %v", err)
			}
			cl, err := client.Dial(s.Addr(), client.Options{Conns: conns})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cl.Close()
			if got, want := cl.TopologySignature(), tr.Signature(); got != want {
				t.Fatalf("topology signature mismatch: server %d, local %d", got, want)
			}
			if cl.M() != sc.M || cl.W() != sc.W {
				t.Fatalf("handshake contract (%d, %d), want (%d, %d)", cl.M(), cl.W(), sc.M, sc.W)
			}

			res := workload.RunConcurrentChunked(cl, ct, 64)

			if res.Errors > 0 {
				t.Errorf("%d request errors over the wire", res.Errors)
			}
			if res.Granted > sc.M {
				t.Errorf("granted %d permits over the wire, contract allows M=%d", res.Granted, sc.M)
			}
			if res.Submitted != int64(ct.Len()) {
				t.Errorf("submitted %d of %d trace requests", res.Submitted, ct.Len())
			}

			// Client-observed outcomes must agree exactly with the server's
			// wire-level accounting (this client is the sole traffic source).
			v := s.Tenants()[0]
			if v.Ops != res.Submitted || v.Grants != res.Granted || v.Rejects != res.Rejected || v.Errors != res.Errors {
				t.Errorf("server accounted ops=%d grants=%d rejects=%d errs=%d; client saw %d/%d/%d/%d",
					v.Ops, v.Grants, v.Rejects, v.Errors, res.Submitted, res.Granted, res.Rejected, res.Errors)
			}

			if name == "exhaustion-reject-wave" {
				if res.Rejected == 0 {
					t.Error("exhaustion scenario produced no rejects")
				}
				// The server pushes the wave notification; with rejects
				// observed, every pooled connection should have been told.
				if !cl.RejectWaveSeen() {
					t.Error("reject wave ran but the client never saw the notification")
				}
				if g := cl.RejectWaveGranted(); g < sc.M-sc.W || g > sc.M {
					t.Errorf("wave announced %d grants, want within [M-W=%d, M=%d]", g, sc.M-sc.W, sc.M)
				}
			}

			// Drain the server and run the oracle's end-of-run checks: the
			// trace must be invariant-clean.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if v := s.Tenants()[0].Violations; len(v) != 0 {
				t.Errorf("oracle violations: %v", v)
			}
		})
	}
}
