package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynctrl/internal/controller"
)

// countingSubmitter is a trivial BatchSubmitter that grants everything and
// tallies the requests it has driven. The occasional Gosched widens the
// window in which Close can race a run in flight. A run still executing
// once the test has set closeReturned sets late.
type countingSubmitter struct {
	driven        atomic.Int64
	closeReturned atomic.Bool
	late          atomic.Bool
}

func (c *countingSubmitter) SubmitBatch(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	if c.driven.Load()%7 == 0 {
		runtime.Gosched()
	}
	for range reqs {
		out = append(out, controller.BatchResult{Grant: controller.Grant{Outcome: controller.Granted}})
	}
	c.driven.Add(int64(len(reqs)))
	if c.closeReturned.Load() {
		c.late.Store(true)
	}
	return out
}

// TestCloseRace is the close-under-load regression test: many goroutines
// hammer Submit and SubmitMany while Close fires in the middle. Every call
// must either complete with valid results or return ErrClosed (never panic,
// never hang), every admitted request must have been driven through the
// core by the time Close returns, and no run may execute after Close has
// returned.
func TestCloseRace(t *testing.T) {
	const submitters = 8
	const perG = 400

	sub := &countingSubmitter{}
	pl := New(sub)

	var admitted atomic.Int64 // requests that were accepted (no ErrClosed)
	var rejectedByClose atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			reqs := make([]controller.Request, 3)
			var out []controller.BatchResult
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					g0, err := pl.Submit(controller.Request{})
					switch {
					case errors.Is(err, ErrClosed):
						rejectedByClose.Add(1)
					case err != nil:
						t.Errorf("Submit: unexpected error %v", err)
					case g0.Outcome != controller.Granted:
						t.Errorf("Submit: outcome %v, want granted", g0.Outcome)
					default:
						admitted.Add(1)
					}
					continue
				}
				res, err := pl.SubmitMany(reqs, out[:0])
				switch {
				case errors.Is(err, ErrClosed):
					rejectedByClose.Add(int64(len(reqs)))
				case err != nil:
					t.Errorf("SubmitMany: unexpected error %v", err)
				case len(res) != len(reqs):
					t.Errorf("SubmitMany: %d results for %d requests", len(res), len(reqs))
				default:
					admitted.Add(int64(len(reqs)))
				}
				out = res
			}
		}(g)
	}

	close(start)
	// Let the submitters get going, then close under load. Half the
	// goroutines will typically still be mid-loop and must observe
	// ErrClosed from then on.
	for sub.driven.Load() < submitters*perG/8 {
		runtime.Gosched()
	}
	pl.Close()
	sub.closeReturned.Store(true)

	// Close must have waited for every admitted request: nothing may still
	// be executing. (A submitter that gets the lock after this point raced
	// the close and lost: it gets ErrClosed.)
	if got, want := sub.driven.Load(), pl.Stats().Requests; got != want {
		t.Errorf("Close returned with %d driven of %d admitted requests", got, want)
	}

	wg.Wait()
	pl.Close() // idempotent

	if sub.late.Load() {
		t.Error("a run executed after Close returned")
	}
	if got := sub.driven.Load(); got != admitted.Load() {
		t.Errorf("driven %d requests, callers saw %d admitted", got, admitted.Load())
	}
	if got, want := pl.Stats().Requests, admitted.Load(); got != want {
		t.Errorf("stats count %d admitted requests, callers saw %d", got, want)
	}
	if rejectedByClose.Load() == 0 {
		t.Log("close won no races; drain still verified (timing-dependent)")
	}

	// Post-close submissions keep failing with the sentinel.
	if _, err := pl.Submit(controller.Request{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err %v, want ErrClosed", err)
	}
	if _, err := pl.SubmitMany(make([]controller.Request, 2), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMany after Close: err %v, want ErrClosed", err)
	}
}

// TestCloseConcurrentWithClose runs several concurrent Close calls against
// live traffic: all must return, exactly once each, with the pipeline
// drained.
func TestCloseConcurrentWithClose(t *testing.T) {
	sub := &countingSubmitter{}
	pl := New(sub)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := pl.Submit(controller.Request{}); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl.Close()
		}()
	}
	wg.Wait()
	if got, want := sub.driven.Load(), pl.Stats().Requests; got != want {
		t.Errorf("driven %d of %d admitted requests after concurrent closes", got, want)
	}
}

// panicOnce panics inside its first SubmitBatch and grants from then on.
type panicOnce struct {
	countingSubmitter
	panicked bool
}

func (p *panicOnce) SubmitBatch(reqs []controller.Request, out []controller.BatchResult) []controller.BatchResult {
	if !p.panicked {
		p.panicked = true
		panic("submitter failed")
	}
	return p.countingSubmitter.SubmitBatch(reqs, out)
}

// TestPanickingSubmitterDoesNotWedgeThePipeline: a submitter that panics
// unwinds through its caller's Submit, and the pipeline must come out of it
// unlocked, so that the next caller, on another goroutine, is answered.
func TestPanickingSubmitterDoesNotWedgeThePipeline(t *testing.T) {
	pl := New(&panicOnce{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first Submit: the submitter's panic did not reach the caller")
			}
		}()
		pl.Submit(controller.Request{})
	}()

	answered := make(chan error, 1)
	go func() {
		g, err := pl.Submit(controller.Request{})
		if err == nil && g.Outcome != controller.Granted {
			err = fmt.Errorf("outcome %v, want granted", g.Outcome)
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Errorf("Submit after a panicked one: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit after a panicked one did not return: the pipeline is wedged")
	}
}
