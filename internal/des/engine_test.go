package des

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := TimeFromSeconds(10)
	if got := t0.Add(5 * Second); got != TimeFromSeconds(15) {
		t.Fatalf("Add: got %v", got)
	}
	if got := t0.Sub(TimeFromSeconds(4)); got != 6*Second {
		t.Fatalf("Sub: got %v", got)
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds: got %v", got)
	}
	if got := MaxTime.Add(Hour); got != MaxTime {
		t.Fatalf("Add overflow must saturate, got %v", got)
	}
	if MaxTime.String() != "t=inf" {
		t.Fatalf("MaxTime string: %q", MaxTime.String())
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(s int16) bool {
		d := FromSeconds(float64(s))
		return d == Duration(s)*Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Second.asTime(), "c", func() { order = append(order, 3) })
	e.At(10*Second.asTime(), "a", func() { order = append(order, 1) })
	e.At(20*Second.asTime(), "b", func() { order = append(order, 2) })
	e.RunUntilIdle(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30*Second.asTime() {
		t.Fatalf("clock: %v", e.Now())
	}
}

// asTime is a test helper to express absolute times tersely.
func (d Duration) asTime() Time { return Time(d) }

func TestEngineSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*Second), "tie", func() { order = append(order, i) })
	}
	e.RunUntilIdle(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties must fire FIFO, got %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(Second, "x", func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel(ev) {
		t.Fatal("cancel should succeed")
	}
	if e.Cancel(ev) {
		t.Fatal("double cancel should fail")
	}
	e.RunUntilIdle(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestEngineCancelZero(t *testing.T) {
	e := NewEngine()
	if e.Cancel(Event{}) {
		t.Fatal("cancel of the zero Event must be a no-op")
	}
	if (Event{}).Pending() {
		t.Fatal("zero Event must not be pending")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := e.After(10*Second, "x", func() { at = e.Now() })
	e.After(Second, "mover", func() {
		if !e.Reschedule(ev, e.Now().Add(2*Second)) {
			t.Error("reschedule failed")
		}
	})
	e.RunUntilIdle(0)
	if at != Time(3*Second) {
		t.Fatalf("rescheduled event fired at %v", at)
	}
	if e.Reschedule(ev, Time(100*Second)) {
		t.Fatal("rescheduling a fired event must fail")
	}
}

// TestEngineRescheduleTieOrder pins that Reschedule draws a fresh sequence
// number, exactly as Cancel + At does: an event moved onto time t fires
// after every event already queued at t, and before every event queued at
// t afterwards. A Reschedule that kept the event's original sequence
// number would fire it first among the ties. pfs moves every stream
// boundary in place on this guarantee.
func TestEngineRescheduleTieOrder(t *testing.T) {
	run := func(move func(e *Engine, ev Event, fn func(), at Time)) []string {
		e := NewEngine()
		var order []string
		log := func(name string) func() { return func() { order = append(order, name) } }
		moved := log("moved")
		ev := e.At(Time(10*Second), "moved", moved) // oldest sequence number
		e.At(Time(5*Second), "a", log("a"))
		e.At(Time(5*Second), "b", log("b"))
		move(e, ev, moved, Time(5*Second))
		e.At(Time(5*Second), "c", log("c"))
		e.RunUntilIdle(0)
		return order
	}
	got := run(func(e *Engine, ev Event, _ func(), at Time) {
		if !e.Reschedule(ev, at) {
			t.Fatal("reschedule of a pending event failed")
		}
	})
	want := run(func(e *Engine, ev Event, fn func(), at Time) {
		e.Cancel(ev)
		e.At(at, "moved", fn)
	})
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != "[a b moved c]" {
		t.Fatalf("Reschedule fired %v, Cancel + At fired %v, want [a b moved c]", got, want)
	}
}

func TestEngineRunStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 5; i++ {
		i := i
		e.At(Time(i)*Time(10*Second), "ev", func() { fired = append(fired, e.Now()) })
	}
	e.Run(Time(25 * Second))
	if len(fired) != 2 {
		t.Fatalf("expected 2 events before deadline, got %d", len(fired))
	}
	if e.Now() != Time(25*Second) {
		t.Fatalf("clock must park at deadline, got %v", e.Now())
	}
	e.Run(Time(100 * Second))
	if len(fired) != 5 {
		t.Fatalf("remaining events must fire, got %d", len(fired))
	}
}

func TestEngineRunParksClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(Time(42 * Second))
	if e.Now() != Time(42*Second) {
		t.Fatalf("idle engine must advance to deadline, got %v", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.After(10*Second, "later", func() {})
	e.RunUntilIdle(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(Time(Second), "past", func() {})
}

func TestEnginePanicsOnNilCallback(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback must panic")
		}
	}()
	e.At(Time(Second), "nil", nil)
}

func TestEngineRunUntilIdleLimit(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(Second, "loop", tick) }
	e.After(Second, "loop", tick)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop must trip the limit")
		}
	}()
	e.RunUntilIdle(100)
}

func TestEngineEventsScheduledDuringStepRun(t *testing.T) {
	e := NewEngine()
	var seen []string
	e.After(Second, "outer", func() {
		seen = append(seen, "outer")
		e.After(Second, "inner", func() { seen = append(seen, "inner") })
		// Same-time event scheduled from within a callback must also fire.
		e.After(0, "now", func() { seen = append(seen, "now") })
	})
	e.RunUntilIdle(0)
	want := []string{"outer", "now", "inner"}
	for i := range want {
		if i >= len(seen) || seen[i] != want[i] {
			t.Fatalf("got %v want %v", seen, want)
		}
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var at []Time
	stop := e.Ticker(10*Second, "tick", func(now Time) { at = append(at, now) })
	e.Run(Time(35 * Second))
	stop()
	e.Run(Time(200 * Second))
	if len(at) != 3 {
		t.Fatalf("expected 3 ticks, got %d (%v)", len(at), at)
	}
	for i, ts := range at {
		if ts != Time((i+1)*10)*Time(Second) {
			t.Fatalf("tick %d at %v", i, ts)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Ticker(Second, "tick", func(Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	e.RunUntilIdle(1000)
	if n != 3 {
		t.Fatalf("ticker must stop from its own callback, fired %d", n)
	}
}

// TestTickerCountsAsPendingDuringCallback pins what Pending reports from
// inside a tick: the ticker stays queued while its callback runs, and
// leaves the count as soon as the callback stops it.
func TestTickerCountsAsPendingDuringCallback(t *testing.T) {
	e := NewEngine()
	var seen []int
	var stop func()
	stop = e.Ticker(Second, "tick", func(Time) {
		seen = append(seen, e.Pending())
		if len(seen) == 2 {
			stop()
			seen = append(seen, e.Pending())
		}
	})
	e.After(Hour, "other", func() { seen = append(seen, e.Pending()) })
	e.RunUntilIdle(1000)
	if fmt.Sprint(seen) != "[2 2 1 0]" || e.Pending() != 0 {
		t.Fatalf("Pending during ticks and after: %v, then %d; want [2 2 1 0], then 0", seen, e.Pending())
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive period must panic")
		}
	}()
	e.Ticker(0, "bad", func(Time) {})
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.After(Duration(i)*Second, "n", func() {})
	}
	e.RunUntilIdle(0)
	if e.Fired() != 7 {
		t.Fatalf("fired = %d", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "pfs/noise")
	b := NewRNG(42, "pfs/noise")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,name) must produce identical streams")
		}
	}
	c := NewRNG(42, "pfs/placement")
	d := NewRNG(43, "pfs/noise")
	same := 0
	for i := 0; i < 100; i++ {
		x := NewRNG(42, "pfs/noise")
		_ = x
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("independent streams look correlated: %d/100 equal draws", same)
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(1, "j")
	if r.Jitter(0) != 0 {
		t.Fatal("jitter(0) must be 0")
	}
	for i := 0; i < 1000; i++ {
		j := r.Jitter(10 * Second)
		if j < 0 || j >= 10*Second {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
}
