package des

import "testing"

// TestEventPoolStaleHandleIsInert is the safety property the generation
// stamps exist for: once an event fires (or is cancelled) its slot is
// recycled for a newer event, and the old handle must not be able to
// cancel, reschedule, or observe the newcomer.
func TestEventPoolStaleHandleIsInert(t *testing.T) {
	e := NewEngine()
	stale := e.After(Second, "victim", func() {})
	e.RunUntilIdle(0) // fires; slot goes back to the pool

	fresh := e.After(Minute, "tenant", func() {})
	if fresh.id != stale.id {
		t.Fatalf("expected slot reuse (pool of 1), got slot %d then %d", stale.id, fresh.id)
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if stale.Name() != "" || stale.At() != 0 {
		t.Fatalf("stale handle leaks tenant state: name=%q at=%v", stale.Name(), stale.At())
	}
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled the tenant's event")
	}
	if e.Reschedule(stale, e.Now().Add(Hour)) {
		t.Fatal("stale handle rescheduled the tenant's event")
	}
	if !fresh.Pending() {
		t.Fatal("tenant event lost")
	}
	if !e.Cancel(fresh) {
		t.Fatal("live handle must still cancel")
	}
}

// TestEventPoolCancelledSlotIsRecycled checks that cancellation, not just
// firing, returns slots to the free list.
func TestEventPoolCancelledSlotIsRecycled(t *testing.T) {
	e := NewEngine()
	ev := e.After(Hour, "x", func() {})
	e.Cancel(ev)
	again := e.After(Hour, "y", func() {})
	if again.id != ev.id {
		t.Fatalf("cancelled slot not recycled: %d then %d", ev.id, again.id)
	}
	if ev.gen == again.gen {
		t.Fatal("recycled slot kept its generation")
	}
}

// TestEventPoolFootprintIsBoundedByConcurrency drives far more events
// through the engine than are ever pending at once: the pool must stay at
// the high-water mark of concurrency, not grow with total events.
func TestEventPoolFootprintIsBoundedByConcurrency(t *testing.T) {
	e := NewEngine()
	const width = 64
	fired := 0
	var spawn func()
	spawn = func() {
		fired++
		if fired < 100000 {
			e.After(Second, "chain", spawn)
		}
	}
	for i := 0; i < width; i++ {
		e.After(Second, "chain", spawn)
	}
	e.RunUntilIdle(0)
	if fired < 100000 {
		t.Fatalf("chain stalled at %d events", fired)
	}
	if ps := e.PoolSize(); ps > width+1 {
		t.Fatalf("pool grew to %d slots for %d concurrent events", ps, width)
	}
}

// TestEventPoolHeapOrderSurvivesChurn interleaves schedule, cancel and
// reschedule on recycled slots and asserts events still fire in (time,
// sequence) order — the ordering contract the whole simulator rests on.
func TestEventPoolHeapOrderSurvivesChurn(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(11, "pool-churn")
	var fired []Time
	live := make([]Event, 0, 128)
	for i := 0; i < 5000; i++ {
		switch rng.IntN(4) {
		case 0, 1:
			at := e.Now().Add(Duration(rng.IntN(1000)) * Millisecond)
			live = append(live, e.At(at, "churn", func() { fired = append(fired, e.Now()) }))
		case 2:
			if len(live) > 0 {
				k := rng.IntN(len(live))
				e.Cancel(live[k]) // may be stale; must be safe either way
				live = append(live[:k], live[k+1:]...)
			}
		case 3:
			if len(live) > 0 {
				k := rng.IntN(len(live))
				e.Reschedule(live[k], e.Now().Add(Duration(rng.IntN(1000))*Millisecond))
			}
		}
		if e.Pending() > 96 {
			for e.Pending() > 48 {
				e.Step()
			}
		}
	}
	e.RunUntilIdle(0)
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %v then %v", fired[i-1], fired[i])
		}
	}
}

// TestEngineSteadyStateAllocs pins the tentpole property: scheduling and
// firing events through a warmed pool performs zero heap allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool and the heap/free-list backing arrays.
	for i := 0; i < 128; i++ {
		e.After(Duration(i)*Millisecond, "warm", fn)
	}
	e.RunUntilIdle(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.After(Millisecond, "steady", fn)
		e.Reschedule(ev, e.Now().Add(2*Millisecond))
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/reschedule/fire allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(Hour, "cancel", fn))
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/cancel allocates %.1f per op, want 0", allocs)
	}
	ticks := 0
	stop := e.Ticker(Second, "steady", func(Time) { ticks++ })
	defer stop()
	allocs = testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 || ticks == 0 {
		t.Fatalf("steady ticker tick allocates %.1f per op (%d ticks), want 0", allocs, ticks)
	}
}

// TestTickerFireTouchesNoHeap pins that a tick costs nothing in the number
// of pending one-shot events: with 10,000 far-future events queued, 10,000
// ticks leave the heap exactly as it was, entry for entry.
func TestTickerFireTouchesNoHeap(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	rng := NewRNG(3, "far")
	for i := 0; i < 10000; i++ {
		e.At(Time(24*Hour)+Time(rng.IntN(1000))*Time(Second), "far", fn)
	}
	ticks := 0
	stop := e.Ticker(Second, "tick", func(Time) { ticks++ })
	defer stop()
	before := append([]entry(nil), e.heap...)
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	if ticks != 10000 {
		t.Fatalf("fired %d ticks, want 10000", ticks)
	}
	if len(e.heap) != len(before) {
		t.Fatalf("heap holds %d entries after the ticks, %d before", len(e.heap), len(before))
	}
	for i := range before {
		if e.heap[i] != before[i] {
			t.Fatalf("heap entry %d changed: %+v, was %+v", i, e.heap[i], before[i])
		}
	}
}
