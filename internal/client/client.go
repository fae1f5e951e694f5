// Package client is the wire-protocol client of the dynctrld daemon: a
// connection-pooled, pipelined front-end that exposes the same
// Submit/SubmitMany surface as the in-process controllers, so drivers
// written against workload.Submitter or workload.ManySubmitter run
// unchanged over TCP.
//
// Every SubmitMany run travels as one Submit frame tagged with a
// correlation id; many runs may be in flight on one connection at a time
// (pipelining), and a per-connection reader goroutine matches Results
// frames back to their waiting callers by id. Calls are spread across the
// pool round-robin, so concurrent callers get both connection-level and
// in-connection parallelism without any coordination of their own.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/wire"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("client: closed")

// ErrWriteTimeout is wrapped into the error failing a SubmitMany whose
// Submit frame could not be written within Options.WriteTimeout — the
// stalled-server case: TCP flow control has backed all the way up into
// this client because the peer stopped reading. The connection is dead
// (failAll) and every call pending on it fails with this error; match it
// with errors.Is.
var ErrWriteTimeout = errors.New("client: write timed out")

// ErrHandshake is wrapped into errors from a handshake that died on the
// wire (connection killed between Hello and Welcome, truncated or
// unexpected frames). A server that answers the handshake but *refuses*
// it returns a *HandshakeError instead.
var ErrHandshake = errors.New("client: handshake failed")

// ResultError is the typed error carried by a per-request wire result with
// a non-OK code.
type ResultError struct {
	// Code is the wire error code (wire.CodeShutdown, ...).
	Code uint8
}

func (e *ResultError) Error() string {
	switch e.Code {
	case wire.CodeShutdown:
		return "dynctrld: server draining"
	case wire.CodeTerminated:
		return "dynctrld: controller terminated"
	case wire.CodeBadRequest:
		return "dynctrld: bad request"
	case wire.CodeInternal:
		return "dynctrld: internal server error"
	default:
		return fmt.Sprintf("dynctrld: error code %d", e.Code)
	}
}

// HandshakeError is the typed error returned when the server refuses the
// handshake with an Error frame (wire.CodeVersion, wire.CodeTenant, ...).
type HandshakeError struct {
	// Code is the connection-fatal wire error code.
	Code uint8
	// Detail is the server's diagnostic text.
	Detail string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("client: server refused handshake (code %d): %s", e.Code, e.Detail)
}

// Options configures Dial.
type Options struct {
	// Conns is the pool size (default 1).
	Conns int
	// Tenant is the namespace every pooled connection binds to in the
	// handshake (default wire.DefaultTenant). Dialing an unknown tenant
	// fails with a HandshakeError carrying wire.CodeTenant.
	Tenant string
	// DialTimeout bounds each TCP dial plus handshake (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each Submit frame write (default 30s — a
	// generous bound, not infinite: a server that stops reading must
	// eventually fail the call instead of wedging the connection's submit
	// mutex, and with it every later Submit routed to that pooled
	// connection, forever). A timed-out write kills the connection and
	// fails its pending calls with an error wrapping ErrWriteTimeout.
	// Negative disables the deadline entirely.
	WriteTimeout time.Duration
}

// Client is a pooled connection to one daemon. It is safe for concurrent
// use by any number of goroutines.
type Client struct {
	opts  Options
	conns []*cliConn
	next  atomic.Uint64

	tenant      string
	m, w        int64
	topoSig     uint64
	incarnation uint64

	waveSeen    atomic.Bool
	waveGranted atomic.Int64

	closed atomic.Bool
}

// Dial connects the pool and performs the version + tenant handshake on
// every connection.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns < 1 {
		opts.Conns = 1
	}
	if opts.Tenant == "" {
		opts.Tenant = wire.DefaultTenant
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	switch {
	case opts.WriteTimeout == 0:
		opts.WriteTimeout = 30 * time.Second
	case opts.WriteTimeout < 0:
		opts.WriteTimeout = 0 // explicit opt-out: no write deadline
	}
	c := &Client{opts: opts}
	for i := 0; i < opts.Conns; i++ {
		cc, err := c.dialOne(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		if i == 0 {
			c.tenant = cc.welcome.Tenant
			c.m, c.w, c.topoSig = cc.welcome.M, cc.welcome.W, cc.welcome.TopoSig
			c.incarnation = cc.welcome.Incarnation
		}
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

func (c *Client) dialOne(addr string) (*cliConn, error) {
	nc, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	cc := &cliConn{
		cl:      c,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		pending: map[uint64]*pendingCall{},
	}
	// A deadline that cannot be armed or cleared is connection-fatal: an
	// undeadlined handshake could hang forever, and a conn stuck behind a
	// stale deadline would poison every later call routed to it.
	if err := nc.SetDeadline(time.Now().Add(c.opts.DialTimeout)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("%w: arm dial deadline: %v", ErrHandshake, err)
	}
	if err := cc.handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("%w: clear dial deadline: %v", ErrHandshake, err)
	}
	go cc.readLoop()
	return cc, nil
}

// Tenant returns the namespace this pool is bound to, as echoed by the
// server in the handshake.
func (c *Client) Tenant() string { return c.tenant }

// M returns the server's permit bound from the handshake.
func (c *Client) M() int64 { return c.m }

// W returns the server's waste bound from the handshake.
func (c *Client) W() int64 { return c.w }

// TopologySignature returns the server's initial-topology signature from
// the handshake (compare against workload.TopologySignature of a locally
// reconstructed tree).
func (c *Client) TopologySignature() uint64 { return c.topoSig }

// Incarnation returns the server's durability incarnation from the
// handshake (0 when the server runs without a WAL).
func (c *Client) Incarnation() uint64 { return c.incarnation }

// RejectWaveSeen reports whether the server has announced the reject wave
// on any pooled connection.
func (c *Client) RejectWaveSeen() bool { return c.waveSeen.Load() }

// RejectWaveGranted returns the server's grant count announced with the
// wave (0 before RejectWaveSeen).
func (c *Client) RejectWaveGranted() int64 { return c.waveGranted.Load() }

// Submit sends one request and blocks until its verdict is in. It
// implements controller.Submitter.
func (c *Client) Submit(req controller.Request) (controller.Grant, error) {
	var one [1]controller.Request
	var res [1]controller.BatchResult
	one[0] = req
	out, err := c.SubmitMany(one[:], res[:0])
	if err != nil {
		return controller.Grant{}, err
	}
	return out[0].Grant, out[0].Err
}

// SubmitMany sends a run of requests as one wire frame — transparently
// split into several frames when the run exceeds wire.MaxBatchLen — and
// blocks until the server has answered all of them, appending one
// BatchResult per request to out. It implements workload.ManySubmitter.
//
// Delivery is at-most-once: a call is routed to a live pooled connection
// (moving on from connections that are already dead), but once the frame
// has been handed to a connection a failure is returned to the caller
// rather than retried elsewhere — the server may have executed the batch
// even though the reply was lost, and re-submitting would consume permits
// twice behind the caller's back.
func (c *Client) SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	for len(reqs) > wire.MaxBatchLen {
		var err error
		out, err = c.submitRun(reqs[:wire.MaxBatchLen], out)
		if err != nil {
			return out, err
		}
		reqs = reqs[wire.MaxBatchLen:]
	}
	return c.submitRun(reqs, out)
}

// submitRun drives one frame-sized run through a live pooled connection.
func (c *Client) submitRun(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	if len(reqs) == 0 {
		return out, nil
	}
	if c.closed.Load() {
		return out, ErrClosed
	}
	// Round-robin over the pool, skipping connections that are already
	// dead. A connection that fails *during* the round trip ends the call:
	// the requests may have reached the controller, so they must not be
	// replayed on another connection.
	start := c.next.Add(1)
	for i := 0; i < len(c.conns); i++ {
		cc := c.conns[(start+uint64(i))%uint64(len(c.conns))]
		if cc.dead.Load() {
			continue
		}
		res, err, attempted := cc.roundTrip(reqs, out)
		if err == nil {
			return res, nil
		}
		if c.closed.Load() {
			return out, ErrClosed
		}
		if attempted {
			return out, err
		}
		// The connection was torn down before the frame was handed to it:
		// nothing reached the server, the next connection may serve it.
	}
	return out, fmt.Errorf("client: no live connections")
}

// Close tears the pool down. In-flight calls fail with connection errors.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, cc := range c.conns {
		cc.nc.Close()
	}
	return nil
}

// pendingCall is one in-flight SubmitMany awaiting its Results frame.
type pendingCall struct {
	n    int // request count, must match the results count
	out  []controller.BatchResult
	err  error
	done chan struct{} // signalled once, after out and err are final
}

// finish completes the call with err. A channel of struct{} is one
// allocation where a channel of error would be two (its buffer holds a
// pointer, so it is allocated apart from the channel).
func (pc *pendingCall) finish(err error) {
	pc.err = err
	pc.done <- struct{}{}
}

// cliConn is one pooled connection with a reader goroutine.
type cliConn struct {
	cl      *Client
	nc      net.Conn
	br      *bufio.Reader // nc's read side: the handshake, then readLoop
	welcome wire.Welcome

	wmu  sync.Mutex // guards nc's write side and id/pending registration order
	wbuf []byte
	id   uint64

	pmu     sync.Mutex
	pending map[uint64]*pendingCall

	dead atomic.Bool
}

func (cc *cliConn) handshake() error {
	cc.wbuf = wire.AppendHello(cc.wbuf[:0], wire.Hello{Version: wire.Version, Tenant: cc.cl.opts.Tenant})
	if _, err := cc.nc.Write(cc.wbuf); err != nil {
		return fmt.Errorf("%w: write hello: %v", ErrHandshake, err)
	}
	var rbuf []byte
	ft, p, err := wire.ReadFrame(cc.br, &rbuf)
	if err != nil {
		// The connection died between Hello and Welcome (or dribbled past
		// the deadline): a typed, prompt error, never a hang.
		return fmt.Errorf("%w: read: %v", ErrHandshake, err)
	}
	switch ft {
	case wire.FrameWelcome:
		w, err := wire.DecodeWelcome(p)
		if err != nil {
			return err
		}
		if w.Version != wire.Version {
			return fmt.Errorf("client: server speaks version %d, want %d", w.Version, wire.Version)
		}
		if w.Tenant != cc.cl.opts.Tenant {
			return fmt.Errorf("client: asked for tenant %q, server welcomed %q", cc.cl.opts.Tenant, w.Tenant)
		}
		cc.welcome = w
		return nil
	case wire.FrameError:
		e, err := wire.DecodeError(p)
		if err != nil {
			return err
		}
		return &HandshakeError{Code: e.Code, Detail: e.Detail}
	default:
		return fmt.Errorf("%w: unexpected %v frame", ErrHandshake, ft)
	}
}

// roundTrip registers a pending call, writes the Submit frame, and waits.
// attempted reports whether the frame was handed to the connection — when
// false the server cannot have seen the requests and the caller may safely
// route them elsewhere.
func (cc *cliConn) roundTrip(reqs []controller.Request, out []controller.BatchResult) (_ []controller.BatchResult, err error, attempted bool) {
	pc := &pendingCall{n: len(reqs), out: out, done: make(chan struct{}, 1)}

	cc.wmu.Lock()
	if cc.dead.Load() {
		cc.wmu.Unlock()
		return out, fmt.Errorf("client: connection closed"), false
	}
	cc.id++
	id := cc.id
	cc.pmu.Lock()
	cc.pending[id] = pc
	cc.pmu.Unlock()

	cc.wbuf = wire.AppendSubmit(cc.wbuf[:0], id, reqs)
	// Write deadline: a server (or network) that stopped reading backs TCP
	// flow control up into this write, which would otherwise block forever
	// while holding wmu — wedging every subsequent Submit routed to this
	// pooled connection. The deadline is armed before every frame and left
	// armed after it: only writes see a write deadline, and each re-arms it
	// first. A failure to arm it is connection-fatal (the write would be
	// undeadlined).
	wt := cc.cl.opts.WriteTimeout
	var werr error
	if wt > 0 {
		werr = cc.nc.SetWriteDeadline(time.Now().Add(wt))
	}
	if werr == nil {
		_, werr = cc.nc.Write(cc.wbuf)
	}
	cc.wmu.Unlock()
	if werr != nil {
		var ne net.Error
		if errors.As(werr, &ne) && ne.Timeout() {
			werr = fmt.Errorf("%w after %v: %v", ErrWriteTimeout, wt, werr)
		}
		cc.failAll(werr)
		return out, werr, true
	}

	<-pc.done
	if pc.err != nil {
		return out, pc.err, true
	}
	return pc.out, nil, true
}

// readLoop dispatches Results frames to their pending calls and handles
// server pushes until the connection dies.
func (cc *cliConn) readLoop() {
	var rbuf []byte
	var err error
	for {
		var ft wire.FrameType
		var p []byte
		ft, p, err = wire.ReadFrame(cc.br, &rbuf)
		if err != nil {
			break
		}
		if err = cc.handleFrame(ft, p); err != nil {
			break
		}
	}
	cc.failAll(err)
}

// handleFrame processes one incoming frame; a non-nil return is
// connection-fatal.
func (cc *cliConn) handleFrame(ft wire.FrameType, p []byte) error {
	switch ft {
	case wire.FrameResults:
		id, e, err := wire.ViewResults(p)
		if err != nil {
			return err
		}
		cc.pmu.Lock()
		pc := cc.pending[id]
		delete(cc.pending, id)
		cc.pmu.Unlock()
		if pc == nil {
			return fmt.Errorf("client: results for unknown id %d", id)
		}
		if e.Len() != pc.n {
			err := fmt.Errorf("client: %d results for %d requests (id %d)", e.Len(), pc.n, id)
			pc.finish(err)
			return err
		}
		base := len(pc.out)
		pc.out = slices.Grow(pc.out, pc.n)[:base+pc.n]
		for i := range pc.out[base:] {
			r, br := e.At(i), &pc.out[base+i]
			if r.Code != wire.CodeOK {
				br.Grant, br.Err = controller.Grant{}, &ResultError{Code: r.Code}
				continue
			}
			br.Grant.Outcome = controller.Outcome(r.Outcome)
			br.Grant.Serial = r.Serial
			br.Grant.NewNode = r.NewNode
			br.Err = nil
		}
		pc.finish(nil)
		return nil
	case wire.FrameRejectWave:
		rw, err := wire.DecodeRejectWave(p)
		if err != nil {
			return err
		}
		cc.cl.waveGranted.Store(rw.Granted)
		cc.cl.waveSeen.Store(true)
		return nil
	case wire.FrameError:
		e, err := wire.DecodeError(p)
		if err != nil {
			return err
		}
		return fmt.Errorf("client: server error: %s", e)
	default:
		return fmt.Errorf("client: unexpected %v frame", ft)
	}
}

// failAll marks the connection dead and fails every pending call.
func (cc *cliConn) failAll(err error) {
	cc.dead.Store(true)
	cc.nc.Close()
	cc.pmu.Lock()
	pending := cc.pending
	cc.pending = map[uint64]*pendingCall{}
	cc.pmu.Unlock()
	for _, pc := range pending {
		pc.finish(err)
	}
}
