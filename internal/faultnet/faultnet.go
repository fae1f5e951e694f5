// Package faultnet is a deterministic fault-injecting TCP proxy for the
// dynctrld wire protocol: it sits between internal/client and
// internal/server, parses the length-prefixed framing so faults land at
// frame granularity, and injects connection kills (pre-handshake,
// mid-frame, between frames), slow-loris byte-dribbling, write stalls,
// whole-frame duplication and bounded delay/reorder — in either direction.
//
// Fault decisions are a pure function of (fault schedule, connection
// ordinal, direction, frame index, seed): deterministic rules match an
// exact (connection, frame) coordinate, probabilistic rules draw from a
// per-(connection, direction) RNG derived from the proxy seed, and every
// fired fault is appended to a logical event log that excludes wall-clock
// time. Two runs in which each connection carries the same frame sequence
// therefore produce identical event logs — the reproducibility contract
// the hostile-network scenario suite pins.
//
// Faults are about bytes and timing only: the proxy never fabricates or
// rewrites protocol payloads, so every byte the server sees was sent by a
// real client (possibly truncated, delayed, repeated or reordered), which
// is exactly the adversary model of a hostile network.
package faultnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"dynctrl/internal/wire"
)

// Direction identifies which half of the proxied connection a rule or
// event applies to.
type Direction int

const (
	// ClientToServer is the request direction (Hello, Submit frames).
	ClientToServer Direction = iota
	// ServerToClient is the response direction (Welcome, Results frames).
	ServerToClient
)

func (d Direction) String() string {
	if d == ClientToServer {
		return "c2s"
	}
	return "s2c"
}

// Kind enumerates the injectable faults.
type Kind int

const (
	// killPreHandshake closes the accepted connection before a single
	// byte is proxied (the upstream is never dialed). Dir and Frame are
	// ignored.
	killPreHandshake Kind = iota
	// Kill closes both sides cleanly instead of forwarding the matched
	// frame: the peer sees an abrupt EOF between frames (kill mid-batch
	// when more Submit frames were coming).
	Kill
	// KillMidFrame forwards the frame header plus roughly half the
	// payload, then closes both sides: the peer sees a truncated frame.
	KillMidFrame
	// SlowLoris forwards the matched frame in Chunk-byte writes spaced
	// Delay apart — a byte-dribbling peer.
	SlowLoris
	// Stall pauses this direction for Delay before forwarding the matched
	// frame: nothing is read from the source meanwhile, so a large enough
	// Delay backs TCP flow control up into the sender (a write stall).
	Stall
	// Dup forwards the matched frame twice back to back (whole-frame
	// duplication/replay).
	Dup
	// reorder holds the matched frame back and forwards it immediately
	// after its successor (bounded delay: at most one frame of
	// displacement). A held frame is flushed on stream end.
	reorder
)

func (k Kind) String() string {
	switch k {
	case killPreHandshake:
		return "kill-pre-handshake"
	case Kill:
		return "kill"
	case KillMidFrame:
		return "kill-mid-frame"
	case SlowLoris:
		return "slow-loris"
	case Stall:
		return "stall"
	case Dup:
		return "dup"
	case reorder:
		return "reorder"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule is one entry of a fault schedule. The first rule that matches a
// frame fires (at most one fault per frame), so earlier rules shadow
// later ones on the same coordinate.
type Rule struct {
	// Kind is the fault to inject.
	Kind Kind
	// Dir is the direction the rule watches (ignored by killPreHandshake).
	Dir Direction
	// Conn is the accepted-connection ordinal (0-based, in accept order)
	// the rule applies to; -1 applies to every connection.
	Conn int
	// Frame is the frame index (0-based, counted per connection per
	// direction) the rule fires at. Frame -1 makes the rule
	// probabilistic: it fires on any frame with probability Prob, drawn
	// from the seeded per-(connection, direction) RNG.
	Frame int
	// Prob is the per-frame firing probability when Frame == -1.
	Prob float64
	// Delay is the pacing for SlowLoris (pause between chunks, default
	// 1ms), Stall (pause length) and reorder (ignored).
	Delay time.Duration
	// Chunk is the SlowLoris write size in bytes (default 1).
	Chunk int
}

// Event records one fired fault in logical coordinates (no wall-clock
// component, so logs compare bitwise across runs).
type Event struct {
	// Conn is the accepted-connection ordinal.
	Conn int
	// Dir is the direction the fault fired on.
	Dir Direction
	// Frame is the frame index the fault fired at (-1 pre-handshake).
	Frame int
	// Kind is the injected fault.
	Kind Kind
	// Rule is the index of the schedule rule that fired.
	Rule int
}

func (e Event) String() string {
	return fmt.Sprintf("conn=%d dir=%s frame=%d fault=%s rule=%d", e.Conn, e.Dir, e.Frame, e.Kind, e.Rule)
}

// FormatEvents renders an event log one event per line, in the canonical
// (Conn, Dir, Frame, Rule) order — the string two reproducible runs must
// agree on.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Config describes one proxy instance.
type Config struct {
	// Listen is the TCP listen address (default "127.0.0.1:0").
	Listen string
	// Upstream is the address faulted traffic is forwarded to (the real
	// server).
	Upstream string
	// Seed derives every probabilistic decision; same (Rules, Seed) and
	// same per-connection frame sequences mean the same Events.
	Seed int64
	// Rules is the fault schedule (empty proxies cleanly).
	Rules []Rule
	// Logf receives debug lines (default: discard).
	Logf func(format string, args ...any)
}

// Proxy is a running fault-injecting proxy.
type Proxy struct {
	cfg  Config
	ln   net.Listener
	stop chan struct{}

	mu     sync.Mutex
	events []Event
	nconn  int
	closed bool

	wg sync.WaitGroup
}

// Start listens and begins accepting. Close releases everything.
func Start(cfg Config) (*Proxy, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("faultnet: Config.Upstream is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Conns returns how many connections have been accepted so far.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nconn
}

// Events returns a snapshot of the fault event log in canonical (Conn,
// Dir, Frame, Rule) order.
func (p *Proxy) Events() []Event {
	p.mu.Lock()
	out := append([]Event(nil), p.events...)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		return a.Rule < b.Rule
	})
	return out
}

// Close stops accepting, cuts every proxied connection and wakes any
// in-progress stall or slow-loris pacing.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) record(e Event) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
	p.cfg.Logf("faultnet: %s", e)
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		ord := p.nconn
		p.nconn++
		closed := p.closed
		p.mu.Unlock()
		if closed {
			nc.Close()
			return
		}
		p.wg.Add(1)
		go p.handle(nc, ord)
	}
}

// handle proxies one accepted connection through the fault schedule.
func (p *Proxy) handle(cn net.Conn, ord int) {
	defer p.wg.Done()
	defer cn.Close()

	for i := range p.cfg.Rules {
		r := &p.cfg.Rules[i]
		if r.Kind == killPreHandshake && (r.Conn < 0 || r.Conn == ord) {
			p.record(Event{Conn: ord, Dir: ClientToServer, Frame: -1, Kind: killPreHandshake, Rule: i})
			return
		}
	}

	up, err := net.Dial("tcp", p.cfg.Upstream)
	if err != nil {
		p.cfg.Logf("faultnet: conn %d: dial upstream %s: %v", ord, p.cfg.Upstream, err)
		return
	}
	defer up.Close()

	// Ensure Close() cuts live pumps even while they sleep in kernel reads.
	done := make(chan struct{})
	defer close(done)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		select {
		case <-p.stop:
			cn.Close()
			up.Close()
		case <-done:
		}
	}()

	var wg sync.WaitGroup
	wg.Add(2)
	go p.pump(&wg, ord, ClientToServer, cn, up)
	go p.pump(&wg, ord, ServerToClient, up, cn)
	wg.Wait()
}

// dirSeed derives the per-(connection, direction) RNG seed (FNV-1a fold).
func dirSeed(seed int64, ord int, dir Direction) int64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{uint64(seed), uint64(ord), uint64(dir)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return int64(h)
}

// pick returns the first schedule rule firing at (ord, dir, frame), or
// -1. Probabilistic draws happen in rule order, once per candidate rule
// per frame, from rng — deterministic within a pump.
func (p *Proxy) pick(rng *rand.Rand, ord int, dir Direction, frame int) (int, *Rule) {
	for i := range p.cfg.Rules {
		r := &p.cfg.Rules[i]
		if r.Kind == killPreHandshake || r.Dir != dir {
			continue
		}
		if r.Conn >= 0 && r.Conn != ord {
			continue
		}
		if r.Frame >= 0 {
			if r.Frame != frame {
				continue
			}
		} else if rng.Float64() >= r.Prob {
			continue
		}
		return i, r
	}
	return -1, nil
}

// sleep pauses for d unless the proxy is closing.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stop:
		return false
	}
}

// hardKill cuts both sides of the proxied connection.
func hardKill(a, b net.Conn) {
	a.Close()
	b.Close()
}

// halfClose propagates a clean EOF from src to dst without cutting the
// opposite direction.
func halfClose(dst net.Conn) {
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck
		return
	}
	dst.Close()
}

// pump forwards frames src -> dst, applying the fault schedule. src and
// dst are the two halves of one proxied connection; killing faults close
// both.
func (p *Proxy) pump(wg *sync.WaitGroup, ord int, dir Direction, src, dst net.Conn) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(dirSeed(p.cfg.Seed, ord, dir)))
	br := bufio.NewReaderSize(src, 64<<10)
	var frame, held []byte
	var hdr [4]byte
	frameIdx := 0

	flushHeld := func() bool {
		if held == nil {
			return true
		}
		_, err := dst.Write(held)
		held = nil
		return err == nil
	}

	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				flushHeld()
				halfClose(dst)
			} else {
				hardKill(src, dst)
			}
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n < 1 || n > wire.MaxFrame {
			// Not a protocol frame: the stream is already garbage, cut it.
			hardKill(src, dst)
			return
		}
		need := 4 + n
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[4:]); err != nil {
			hardKill(src, dst)
			return
		}

		ri, rule := p.pick(rng, ord, dir, frameIdx)
		if rule != nil {
			p.record(Event{Conn: ord, Dir: dir, Frame: frameIdx, Kind: rule.Kind, Rule: ri})
		}
		frameIdx++

		switch {
		case rule == nil:
			if _, err := dst.Write(frame); err != nil {
				hardKill(src, dst)
				return
			}
			if !flushHeld() {
				hardKill(src, dst)
				return
			}
		case rule.Kind == Kill:
			hardKill(src, dst)
			return
		case rule.Kind == KillMidFrame:
			cut := 4 + (n+1)/2
			if cut >= need {
				cut = need - 1
			}
			dst.Write(frame[:cut]) //nolint:errcheck // killing anyway
			hardKill(src, dst)
			return
		case rule.Kind == SlowLoris:
			chunk := rule.Chunk
			if chunk <= 0 {
				chunk = 1
			}
			delay := rule.Delay
			if delay <= 0 {
				delay = time.Millisecond
			}
			for off := 0; off < need; off += chunk {
				end := off + chunk
				if end > need {
					end = need
				}
				if _, err := dst.Write(frame[off:end]); err != nil {
					hardKill(src, dst)
					return
				}
				if end < need && !p.sleep(delay) {
					hardKill(src, dst)
					return
				}
			}
			if !flushHeld() {
				hardKill(src, dst)
				return
			}
		case rule.Kind == Stall:
			if !p.sleep(rule.Delay) {
				hardKill(src, dst)
				return
			}
			if _, err := dst.Write(frame); err != nil {
				hardKill(src, dst)
				return
			}
			if !flushHeld() {
				hardKill(src, dst)
				return
			}
		case rule.Kind == Dup:
			for i := 0; i < 2; i++ {
				if _, err := dst.Write(frame); err != nil {
					hardKill(src, dst)
					return
				}
			}
			if !flushHeld() {
				hardKill(src, dst)
				return
			}
		case rule.Kind == reorder:
			if held != nil {
				// Only one frame may be in flight held; forward the older
				// one first to keep displacement bounded at one frame.
				if !flushHeld() {
					hardKill(src, dst)
					return
				}
			}
			held = append([]byte(nil), frame...)
		}
	}
}
