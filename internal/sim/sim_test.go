package sim

import (
	"sync"
	"testing"
)

func TestDeterministicDeliversAll(t *testing.T) {
	rt := NewDeterministic(1)
	var got []int
	rt.SetHandler(func(m Message) {
		got = append(got, m.Payload.(int))
	})
	for i := 0; i < 50; i++ {
		rt.Send(1, 2, i)
	}
	rt.Drain()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	if rt.Messages() != 50 {
		t.Fatalf("Messages() = %d, want 50", rt.Messages())
	}
}

func TestDeterministicReproducible(t *testing.T) {
	order := func(seed int64) []int {
		rt := NewDeterministic(seed)
		var got []int
		rt.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
		for i := 0; i < 30; i++ {
			rt.Send(1, 2, i)
		}
		rt.Drain()
		return got
	}
	a := order(7)
	b := order(7)
	c := order(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce same delivery order")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should shuffle differently")
	}
}

func TestDeterministicHandlerMaySend(t *testing.T) {
	rt := NewDeterministic(2)
	count := 0
	rt.SetHandler(func(m Message) {
		count++
		if v := m.Payload.(int); v > 0 {
			rt.Send(m.To, m.From, v-1)
		}
	})
	rt.Send(1, 2, 10)
	rt.Drain()
	if count != 11 {
		t.Fatalf("delivered %d, want 11 (chain of sends)", count)
	}
}

// catalogRuntime builds the named catalog runtime or fails the test.
func catalogRuntime(t *testing.T, name string, seed int64) *Runtime {
	t.Helper()
	rt, err := NewRuntime(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestConcurrentDeliversAll drives one runtime per goroutine, several at
// once over every catalog scheduler. Each delivers all of its messages in
// the order a lone run of the same (scheduler, seed) delivers them: runtimes
// share no state, schedulers' random sources included. Run under -race this
// also checks that nothing in sim is shared between runtimes.
func TestConcurrentDeliversAll(t *testing.T) {
	const n, perName = 500, 2
	names := SchedulerNames()
	want := make([][]int, len(names))
	for i, name := range names {
		want[i] = collectOrder(catalogRuntime(t, name, 9), n)
	}
	got := make([][]int, len(names)*perName)
	runtimes := make([]*Runtime, len(got))
	for i := range got {
		runtimes[i] = catalogRuntime(t, names[i%len(names)], 9)
	}
	var wg sync.WaitGroup
	for i, rt := range runtimes {
		wg.Add(1)
		go func(i int, rt *Runtime) {
			defer wg.Done()
			got[i] = collectOrder(rt, n)
		}(i, rt)
	}
	wg.Wait()
	for i, order := range got {
		name := names[i%len(names)]
		if len(order) != n {
			t.Fatalf("%s copy %d: delivered %d of %d", name, i, len(order), n)
		}
		if runtimes[i].Messages() != n {
			t.Fatalf("%s copy %d: Messages() = %d, want %d", name, i, runtimes[i].Messages(), n)
		}
		for j, v := range order {
			if v != want[i%len(names)][j] {
				t.Fatalf("%s copy %d: delivered %d at position %d, a lone run %d",
					name, i, v, j, want[i%len(names)][j])
			}
		}
	}
}

// TestConcurrentHandlerChains keeps many chains of handler sends in flight
// at once, so every catalog scheduler interleaves them; each chain must run
// to its end.
func TestConcurrentHandlerChains(t *testing.T) {
	const chains, hops = 20, 25
	type hop struct{ chain, left int }
	for _, name := range SchedulerNames() {
		rt := catalogRuntime(t, name, 4)
		delivered := make([]int, chains)
		rt.SetHandler(func(m Message) {
			h := m.Payload.(hop)
			delivered[h.chain]++
			if h.left > 0 {
				rt.Send(m.To, m.From, hop{h.chain, h.left - 1})
			}
		})
		for c := 0; c < chains; c++ {
			rt.Send(1, 2, hop{c, hops})
		}
		rt.Drain()
		for c, got := range delivered {
			if got != hops+1 {
				t.Fatalf("%s: chain %d delivered %d, want %d", name, c, got, hops+1)
			}
		}
		if rt.Messages() != chains*(hops+1) {
			t.Fatalf("%s: Messages() = %d, want %d", name, rt.Messages(), chains*(hops+1))
		}
	}
}

// TestConcurrentHandlersSerialized checks the handler promise that handlers
// run one at a time inside Drain: a send made outside Drain waits for it,
// and a handler's own sends are queued, never delivered inside the handler,
// however many messages are in flight at once.
func TestConcurrentHandlersSerialized(t *testing.T) {
	for _, name := range SchedulerNames() {
		rt := catalogRuntime(t, name, 5)
		inside, count := 0, 0
		rt.SetHandler(func(m Message) {
			inside++
			if inside != 1 {
				t.Fatalf("%s: handler entered while %d already running", name, inside-1)
			}
			count++
			if v := m.Payload.(int); v > 0 {
				rt.Send(m.To, m.From, v-1)
				rt.Send(m.From, m.To, v-1)
			}
			inside--
		})
		for i := 0; i < 4; i++ {
			rt.Send(1, 2, 5)
		}
		if count != 0 {
			t.Fatalf("%s: %d messages delivered before Drain", name, count)
		}
		rt.Drain()
		if want := 4 * (1<<6 - 1); count != want {
			t.Fatalf("%s: delivered %d, want %d", name, count, want)
		}
	}
}

// TestConcurrentDrainQuiescesEmpty checks that Drain returns at once when
// nothing is in flight, both on a fresh runtime and after a drain.
func TestConcurrentDrainQuiescesEmpty(t *testing.T) {
	for _, name := range SchedulerNames() {
		rt := catalogRuntime(t, name, 6)
		count := 0
		rt.SetHandler(func(m Message) { count++ })
		rt.Drain() // no messages: must return promptly
		if count != 0 || rt.Messages() != 0 {
			t.Fatalf("%s: empty drain delivered %d (Messages() = %d)", name, count, rt.Messages())
		}
		rt.Send(1, 2, 0)
		rt.Send(2, 1, 0)
		rt.Drain()
		rt.Drain()
		if count != 2 || rt.Messages() != 2 {
			t.Fatalf("%s: delivered %d (Messages() = %d), want 2", name, count, rt.Messages())
		}
	}
}
