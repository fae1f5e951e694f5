package bench

import (
	"fmt"
	"sync"
	"time"
)

// The host probe is a fixed piece of work, timed every few milliseconds
// beside the measured iterations: a chain of dependent loads through
// 256 KiB, which fits the second-level cache but not the first. The sandbox
// is a few cores of a shared host, and what the other tenants do moves
// every timing here by 30-40 % between one half hour and the next (the
// clock rate drops, the caches are contended). The probe slows down with
// the daemon, so an end-to-end timing is reported at the probe's reference
// speed: multiplied or divided by probe time ÷ probeRefNS over the same
// interval. README.md, "Why the timings are calibrated", has the
// measurements.
//
// Each sample chases through another of probeWindows windows, so a window
// comes round again only after the probe alone has pulled 8 MiB through the
// caches: every sample starts with its window out of the second-level cache
// and ends with it in, whatever the workload beside it leaves there. With a
// single window a small workload (events-batch) left it half resident, and
// the probe read 0.83 or 1.0 from run to run on a quiet host.
const (
	probeSlots   = 1 << 14 // uint32 each: 64 KiB a window
	probeWindows = 128
	probeLoads   = 20000
	probePeriod  = 4 * time.Millisecond
	// probeRefNS is what one probe sample takes on the builder's sandbox in
	// a quiet spell. Only ratios to it matter.
	probeRefNS = 130_000
)

type hostProbe struct {
	mu      sync.Mutex
	samples []int64
	stop    chan struct{}
	done    chan struct{}
}

// probeSink keeps the compiler from dropping the probe's loads.
var probeSink uint32

// probeCycle returns a random single-cycle permutation (Sattolo), so that a
// chase through it visits every slot before it repeats and no prefetcher
// can follow it.
func probeCycle() []uint32 {
	a := make([]uint32, probeSlots)
	for j := range a {
		a[j] = uint32(j)
	}
	x := uint64(88172645463325252)
	for j := len(a) - 1; j > 0; j-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % uint64(j))
		a[j], a[k] = a[k], a[j]
	}
	return a
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	cycle := probeCycle()
	var windows [probeWindows][]uint32
	for w := range windows {
		windows[w] = append([]uint32(nil), cycle...)
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			buf, pos := windows[n%probeWindows], uint32(0)
			t0 := time.Now()
			for j := 0; j < probeLoads; j++ {
				pos = buf[pos]
			}
			d := int64(time.Since(t0))
			probeSink = pos
			p.mu.Lock()
			p.samples = append(p.samples, d)
			p.mu.Unlock()
		}
	}()
	return p
}

// Stop ends the probe and waits for its goroutine.
func (p *hostProbe) Stop() {
	close(p.stop)
	<-p.done
}

// Take returns how slow the host was since the last Take (or the start):
// the median probe sample over the reference, above 1 when the host is
// slower than the reference. The median drops the samples another thread
// interrupted.
func (p *hostProbe) Take() (slowdown float64, err error) {
	p.mu.Lock()
	s := sortedCopy(p.samples)
	p.samples = p.samples[:0]
	p.mu.Unlock()
	if len(s) == 0 {
		return 0, fmt.Errorf("the host probe took no sample")
	}
	return float64(Percentile(s, 50)) / probeRefNS, nil
}
