package bench

import (
	"fmt"
	"os"
	"os/exec"
	"time"

	"dynctrl/internal/client"
)

// IterOpts selects the variant of one daemon run.
type IterOpts struct {
	Flags   []string  // extra daemon flags: -paranoid, -trace-ring -1
	NoWAL   bool      // run a WAL workload without its -wal-dir
	Restart bool      // after the window: kill -9, restart, check and time the recovery
	Rec     *Recorder // record a span around every client call of the window
	// MaxRequests, when set, ends the run after about this many requests
	// over both connections, warm-up included.
	MaxRequests int
}

// Iteration is one daemon lifetime: boot, warm-up, the measured window over
// the workload's pinned request count, the checks, and optionally a kill -9
// and restart.
type Iteration struct {
	SetupS    float64 // exec dynctrld → Welcome on both connections → warm-up done
	WindowS   float64
	RecoveryS []float64     // kill -9 → restart with the same flags → first Welcome, each time
	Ops       int64         // verdicts received inside the window
	CPU       time.Duration // daemon processor time inside the window
	RSSMiB    float64       // daemon VmHWM at the end of the window
	Lat       []int64       // window latencies, ns
	Open      *OpenTimings  // open loop only
	Scrape    Scraped       // /metricsz after the window
	Checks
}

// nsPerOp is the window's wall time per verdict.
func (it *Iteration) nsPerOp() float64 { return it.WindowS * 1e9 / float64(it.Ops) }

// daemonSpan names the span around each client call of a traced daemon run.
const daemonSpan = "daemon:client.Submit"

// RunIteration runs the workload once against a fresh daemon.
func (e *Env) RunIteration(in *Input, o IterOpts) (*Iteration, error) {
	w := in.W
	flags := append(daemonFlags(w), o.Flags...)
	walDir := ""
	if w.WAL && !o.NoWAL {
		var err error
		if walDir, err = os.MkdirTemp(e.Scratch, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
		flags = append(flags, "-wal-dir", walDir)
	}

	it := &Iteration{}
	t0 := time.Now()
	d, err := e.StartDaemon(flags...)
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	var cls [Conns]*client.Client
	for c := range cls {
		if cls[c], err = d.Dial(); err != nil {
			return nil, err
		}
		defer cls[c].Close()
	}
	if cls[0].TopologySignature() != in.TopoSig || cls[0].M() != w.M || cls[0].W() != w.W {
		return nil, fmt.Errorf("%s: daemon welcomed (M=%d W=%d topology %d), input was generated for (M=%d W=%d topology %d)",
			w.Name, cls[0].M(), cls[0].W(), cls[0].TopologySignature(), w.M, w.W, in.TopoSig)
	}

	// The first sixteenth of the run is warm-up: untimed, and charged to
	// set-up.
	chunks, arrivals := in.NumChunks(), w.Count
	if o.MaxRequests > 0 && o.MaxRequests < w.Count {
		arrivals = o.MaxRequests
		chunks = o.MaxRequests / Conns / w.Chunk
	}
	var total *Tally
	sample := func() (err error) {
		it.SetupS = time.Since(t0).Seconds()
		it.CPU, err = d.CPU()
		return err
	}
	if w.OpenRate > 0 {
		var subs [Conns]submitter
		for c := range cls {
			subs[c] = cls[c]
		}
		warm := arrivals / 16
		total, _, _ = runOpen(subs, in, 0, warm, nil, "")
		if err := sample(); err != nil {
			return nil, err
		}
		win, timings, elapsed := runOpen(subs, in, warm, arrivals, o.Rec, daemonSpan)
		it.WindowS, it.Ops, it.Lat, it.Open = elapsed.Seconds(), win.Submitted, win.Lat, timings
		total.add(win)
	} else {
		var subs [Conns]manySubmitter
		for c := range cls {
			subs[c] = cls[c]
		}
		tallies := newTallies(in)
		warm := chunks / 16
		runClosedAll(subs, in, 0, warm, tallies, nil, "")
		warmed := mergeTallies(tallies).Submitted
		for c := range tallies {
			tallies[c].Lat = tallies[c].Lat[:0]
		}
		if err := sample(); err != nil {
			return nil, err
		}
		elapsed := runClosedAll(subs, in, warm, chunks, tallies, o.Rec, daemonSpan)
		total = mergeTallies(tallies)
		it.WindowS, it.Ops, it.Lat = elapsed.Seconds(), total.Submitted-warmed, total.Lat
	}
	cpu1, err := d.CPU()
	if err != nil {
		return nil, err
	}
	it.CPU = cpu1 - it.CPU
	if it.RSSMiB, err = d.PeakRSSMiB(); err != nil {
		return nil, err
	}
	if it.Scrape, err = d.Scrape(); err != nil {
		return nil, err
	}
	it.Attempted = total.Submitted
	it.Failed = total.Errors + total.NoVerdict
	it.check(w, total)
	incarnation := cls[0].Incarnation()
	for _, cl := range cls {
		cl.Close()
	}

	if o.Restart {
		d.Kill()
		// A boot without a WAL takes milliseconds, of which the operating
		// system's share varies from one exec to the next, so it is timed
		// several times; a recovery is long enough to time once.
		restarts := coldRestarts
		if walDir != "" {
			restarts = 1
		}
		for i := 0; i < restarts; i++ {
			if err := e.restart(it, flags, walDir, incarnation, total.Granted); err != nil {
				return nil, fmt.Errorf("%s: restart after kill -9: %v", w.Name, err)
			}
		}
		if walDir != "" {
			if out, err := exec.Command(e.Bin, "-wal-dir", walDir, "-verify-wal").CombinedOutput(); err != nil {
				it.problem("dynctrld -verify-wal: %v: %s", err, out)
			}
		}
	}
	return it, nil
}

// coldRestarts is how often an iteration without a WAL times the restart.
const coldRestarts = 9

// restart starts the daemon again with the flags of the one just killed,
// times exec → first Welcome, and kills it again. On a WAL directory it
// also checks what was recovered against what the clients were told.
func (e *Env) restart(it *Iteration, flags []string, walDir string, incarnation uint64, acked int64) error {
	t0 := time.Now()
	d, err := e.StartDaemon(flags...)
	if err != nil {
		return err
	}
	defer d.Kill()
	cl, err := d.Dial()
	if err != nil {
		return err
	}
	it.RecoveryS = append(it.RecoveryS, time.Since(t0).Seconds())
	defer cl.Close()
	if walDir == "" {
		return nil
	}
	s, err := d.Scrape()
	if err != nil {
		return err
	}
	if got := cl.Incarnation(); got != incarnation+1 {
		it.problem("incarnation after kill -9 is %d, want %d", got, incarnation+1)
	}
	if got := int64(s.tenant("dynctrld_tenant_ctl_grants_total")); got < acked {
		it.problem("recovered %d grants, the clients were acknowledged %d", got, acked)
	}
	return nil
}

// check holds one run's outputs against the (M, W) contract and against the
// daemon's own accounting. A legal reject is not a failure.
func (it *Iteration) check(w Workload, total *Tally) {
	s := it.Scrape
	for _, c := range []struct {
		family string
		want   int64
	}{
		{"dynctrld_tenant_ops_total", total.Submitted},
		{"dynctrld_tenant_grants_total", total.Granted},
		{"dynctrld_tenant_rejects_total", total.Rejected},
		{"dynctrld_tenant_errors_total", 0},
		{"dynctrld_tenant_oracle_violations", 0},
	} {
		if got := int64(s.tenant(c.family)); got != c.want {
			it.problem("%s = %d, the clients saw %d", c.family, got, c.want)
		}
	}
	if total.Granted > w.M {
		it.problem("granted %d > M = %d", total.Granted, w.M)
	}
	if total.Rejected > 0 && total.Granted < w.M-w.W {
		it.problem("rejected after only %d grants, M - W = %d", total.Granted, w.M-w.W)
	}
	if total.GrantAfterReject > 0 {
		it.problem("%d grants after the first reject on their connection", total.GrantAfterReject)
	}
	seen := make([]uint64, w.M/64+1)
	for _, serial := range total.Serials {
		if serial < 1 || serial > w.M {
			it.problem("serial %d outside [1, M = %d]", serial, w.M)
			break
		}
		if seen[serial/64]&(1<<(serial%64)) != 0 {
			it.problem("serial %d granted twice", serial)
			break
		}
		seen[serial/64] |= 1 << (serial % 64)
	}
}

// minIterations is the fewest daemon lifetimes one end-to-end run takes its
// medians over, however short --seconds is.
const minIterations = 3

// E2E is one end-to-end run: as many iterations as fit into the time given,
// each a fresh daemon, reported as medians over the iterations (latency
// percentiles over the pooled calls).
type E2E struct {
	Values     *Values
	Info       []Info // measured, printed, not gated
	Iterations int
	Checks
}

// RunE2E measures the workload for about the given number of seconds with
// every span off. The three timings are calibrated iteration by iteration
// against the host probe (probe.go); what the clock read is in Info.
func (e *Env) RunE2E(in *Input, seconds float64) (*E2E, error) {
	if err := Confine(in.W.OpenRate == 0); err != nil {
		return nil, err
	}
	r := &E2E{Values: newValues()}
	start := time.Now()
	var floor []int64
	if in.W.OpenRate > 0 {
		floor = openFloor(in)
	}
	// The open loop is not calibrated: its throughput is its schedule's,
	// and its dispatcher shares its processor with nothing.
	var probe *hostProbe
	if in.W.OpenRate == 0 {
		probe = startProbe()
		defer probe.Stop()
	}
	var setup, thr, cpu, rss, recov, slow, rawSetup, rawThr, rawCPU []float64
	var lat, svc, lag []int64
	for {
		// An iteration is started only if it should end inside the time
		// given: the driver's budget is per run, and on deep-exhaust one
		// iteration takes five seconds.
		elapsed := time.Since(start).Seconds()
		if r.Iterations >= minIterations && elapsed+elapsed/float64(r.Iterations) > seconds {
			break
		}
		if probe != nil {
			probe.Take() //nolint:errcheck // drops the samples taken between iterations
		}
		// Only a WAL has anything to check after kill -9; the restart time
		// itself is the traced run's bench.recovery_s.
		it, err := e.RunIteration(in, IterOpts{Restart: in.W.WAL})
		if err != nil {
			return nil, err
		}
		slowdown := 1.0
		if probe != nil {
			if slowdown, err = probe.Take(); err != nil {
				return nil, err
			}
		}
		r.Iterations++
		r.absorb(it.Checks)
		opsPerS, cpuPerOp := float64(it.Ops)/it.WindowS, float64(it.CPU.Microseconds())/float64(it.Ops)
		slow = append(slow, slowdown)
		rawSetup, rawThr, rawCPU = append(rawSetup, it.SetupS), append(rawThr, opsPerS), append(rawCPU, cpuPerOp)
		setup = append(setup, it.SetupS/slowdown)
		thr = append(thr, opsPerS*slowdown)
		cpu = append(cpu, cpuPerOp/slowdown)
		rss = append(rss, it.RSSMiB)
		recov = append(recov, it.RecoveryS...)
		lat = append(lat, it.Lat...)
		if it.Open != nil {
			svc = append(svc, it.Open.Svc...)
			lag = append(lag, it.Open.Lag...)
		}
	}
	lat, lag, svc, floor = sortedCopy(lat), sortedCopy(lag), sortedCopy(svc), sortedCopy(floor)
	v := r.Values
	v.set("setup_s", Median(setup), len(setup))
	v.set("throughput_ops_s", Median(thr), len(thr))
	v.set("server_cpu_us_per_op", Median(cpu), len(cpu))
	v.set("server_rss_mb", Median(rss), len(rss))

	if probe != nil {
		r.Info = append(r.Info,
			Info{"host probe over its reference, median", Median(slow), "ratio", len(slow)},
			Info{"setup_s as the clock read it", Median(rawSetup), "s", len(rawSetup)},
			Info{"throughput_ops_s as the clock read it", Median(rawThr), "1/s", len(rawThr)},
			Info{"server_cpu_us_per_op as the clock read it", Median(rawCPU), "us", len(rawCPU)})
	}
	info := func(name string, sorted []int64, p float64) {
		r.Info = append(r.Info, Info{fmt.Sprintf("%s p%g", name, p), us(Percentile(sorted, p)), "us", len(sorted)})
	}
	info("latency", lat, 50)
	info("latency", lat, 99)
	if tail := HighestPercentile(len(lat)); tail > 99 {
		info("latency tail (10 samples beyond)", lat, tail)
	}
	if len(recov) > 0 {
		r.Info = append(r.Info, Info{"restart after kill -9, median", Median(recov), "s", len(recov)})
	}
	if in.W.OpenRate > 0 {
		// How much of the open loop's latency is the generator.
		info("generator lag (send - due)", lag, 50)
		info("generator lag (send - due)", lag, 99)
		info("generator service (reply - send)", svc, 50)
		info("generator floor (null submitter)", floor, 50)
		info("generator floor (null submitter)", floor, 99)
	}
	return r, nil
}

// openFloor runs the open loop's measured window over a submitter that
// answers at once: what is left is the generator.
func openFloor(in *Input) []int64 {
	t, _, _ := runOpen([Conns]submitter{nullSubmitter{}, nullSubmitter{}}, in, in.W.Count/16, in.W.Count, nil, "")
	return t.Lat
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
