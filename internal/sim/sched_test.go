package sim

import (
	"testing"

	"dynctrl/internal/tree"
)

// collectOrder sends n payloads 0..n-1 in one burst and returns the order
// the runtime delivered them in.
func collectOrder(rt *Runtime, n int) []int {
	var got []int
	rt.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < n; i++ {
		rt.Send(tree.NodeID(1+i%4), tree.NodeID(5+i%3), i)
	}
	rt.Drain()
	return got
}

func TestFIFOSchedulerDeliversInSendOrder(t *testing.T) {
	got := collectOrder(over(fifo()), 64)
	for i, v := range got {
		if v != i {
			t.Fatalf("fifo delivered %d at position %d", v, i)
		}
	}
}

func TestLIFOSchedulerDeliversNewestFirst(t *testing.T) {
	got := collectOrder(over(lifo()), 64)
	for i, v := range got {
		if v != 63-i {
			t.Fatalf("lifo delivered %d at position %d", v, i)
		}
	}
}

func TestWindowSchedulerBoundsReordering(t *testing.T) {
	const n, w = 96, 8
	got := collectOrder(over(window(5, w)), n)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	moved := false
	for i, v := range got {
		if v != i {
			moved = true
		}
		// A message may leave its send position only within its burst.
		if v/w != i/w {
			t.Fatalf("message %d delivered at position %d: escaped its burst of %d", v, i, w)
		}
	}
	if !moved {
		t.Fatal("window scheduler produced the identity order; expected in-burst shuffling")
	}
}

func TestAdversarialSchedulersReproducibleAndDistinct(t *testing.T) {
	mk := func(name string, seed int64) []int {
		rt, err := NewRuntime(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		return collectOrder(rt, 48)
	}
	for _, name := range []string{"random", "delay", "window"} {
		a, b, c := mk(name, 7), mk(name, 7), mk(name, 8)
		if len(a) != 48 || len(b) != 48 || len(c) != 48 {
			t.Fatalf("%s: lost messages: %d/%d/%d", name, len(a), len(b), len(c))
		}
		same, sameOther := true, true
		for i := range a {
			if a[i] != b[i] {
				same = false
			}
			if a[i] != c[i] {
				sameOther = false
			}
		}
		if !same {
			t.Fatalf("%s: same seed must reproduce the same schedule", name)
		}
		if sameOther {
			t.Fatalf("%s: seeds 7 and 8 produced identical schedules", name)
		}
	}
}

func TestSchedulersDeliverChainedSends(t *testing.T) {
	for _, name := range SchedulerNames() {
		rt, err := NewRuntime(name, 3)
		if err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("%s: delivered %d, want 11 (chain of sends)", name, count)
		}
		if rt.Messages() != 11 {
			t.Fatalf("%s: Messages() = %d, want 11", name, rt.Messages())
		}
	}
}

func TestNewRuntimeRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"carrier-pigeon", "concurrent"} {
		if _, err := NewRuntime(name, 1); err == nil {
			t.Fatalf("unknown runtime name %q must error", name)
		}
	}
	if len(SchedulerNames()) < 5 {
		t.Fatalf("scheduler catalog too small: %v", SchedulerNames())
	}
	for _, name := range SchedulerNames() {
		if _, err := NewRuntime(name, 1); err != nil {
			t.Fatalf("catalog scheduler %q: %v", name, err)
		}
	}
}
