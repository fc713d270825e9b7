package des

import (
	"fmt"
	"math"
)

// Event is a handle to a scheduled callback. Events are single-shot; a
// fired or cancelled event is inert, and so is the zero Event. Events are
// ordered by time, then by scheduling sequence number, which makes
// simultaneous events fire in the order they were scheduled.
//
// The handle is a small value (engine, slot index, generation) rather than
// a pointer: the engine stores event state in a pooled slot array and
// recycles slots as events fire, so a heap allocation per scheduled event
// — the dominant allocation in large replays — never happens. The
// generation stamp makes stale handles safe: cancelling or rescheduling an
// event whose slot has been recycled for a newer event is a no-op, exactly
// like cancelling an already-fired pointer event used to be.
type Event struct {
	eng *Engine
	id  int32
	gen uint32
}

// live reports whether the handle still refers to a queued event.
func (ev Event) live() bool {
	return ev.eng != nil && int(ev.id) < len(ev.eng.slots) &&
		ev.eng.slots[ev.id].gen == ev.gen && ev.eng.slots[ev.id].pos >= 0
}

// At returns the time the event is scheduled to fire, or zero if the event
// already fired or was cancelled.
func (ev Event) At() Time {
	if !ev.live() {
		return 0
	}
	return ev.eng.heap[ev.eng.slots[ev.id].pos].at
}

// Name returns the diagnostic label given at scheduling time, or "" once
// the event has fired or been cancelled.
func (ev Event) Name() string {
	if !ev.live() {
		return ""
	}
	return ev.eng.slots[ev.id].name
}

// slot is the pooled storage behind one event handle or one ticker. Its
// key lives in the entry that queues it, so ordering never loads a slot.
type slot struct {
	fn   func()     // a one-shot event's callback
	tick func(Time) // a ticker's callback
	name string
	gen  uint32
	pos  int32 // a one-shot event's heap position, -1 otherwise
}

// entry queues one slot under its key. A lane holds entries of running
// tickers only: stopping a ticker removes its entry.
type entry struct {
	at  Time
	seq uint64
	id  int32
}

// idle stands in for the head of an empty lane: no queued entry orders
// after it, because no sequence number reaches math.MaxUint64.
var idle = entry{at: MaxTime, seq: math.MaxUint64, id: -1}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lane holds every running ticker of one period, in firing order, as a
// ring of entries whose length is a power of two. Engine.heads mirrors
// each lane's first entry.
type lane struct {
	period Duration
	ring   []entry
	head   int
	n      int
}

// Engine is a deterministic discrete-event simulation executive. It is not
// safe for concurrent use: a simulation is a single logical timeline, and
// all model code runs inside event callbacks on one goroutine. Callbacks
// may schedule, cancel and reschedule events and start and stop tickers,
// but must not call Step or Run.
//
// The pending queue has two parts, and Step pops the smallest (at, seq)
// key across them. One-shot events sit in a 4-ary min-heap of inline
// keys: comparisons read only the heap array, and each slot keeps its heap
// position for Cancel and Reschedule. Tickers never enter the heap: each
// distinct period has a FIFO lane, and a ticker that fires is re-armed at
// its lane's tail, which is where its new key belongs (DESIGN.md, "Event
// pooling in des"). Slots recycle through a free list, so the steady state
// allocates nothing per event or tick and never boxes through an
// interface.
type Engine struct {
	now   Time
	slots []slot
	heap  []entry // one-shot events ordered by (at, seq)
	lanes []lane  // one per ticker period, in creation order
	heads []entry // each lane's first entry, idle when it is empty
	free  []int32 // recycled slot ids
	seq   uint64
	fired uint64
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far, ticks
// included.
func (e *Engine) Fired() uint64 { return e.fired }

// PoolSize returns the number of slots ever allocated, one per pending
// event or running ticker; the steady-state pool footprint equals the
// maximum number of both at once, independent of how many events fire in
// total.
func (e *Engine) PoolSize() int { return len(e.slots) }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would mean the model produced a causality
// violation, which is always a bug.
//
//waschedlint:hotpath
func (e *Engine) At(at Time, name string, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("des: event %q scheduled at %v before now %v", name, at, e.now))
	}
	if fn == nil {
		panic("des: nil event callback")
	}
	e.seq++
	id := e.alloc()
	s := &e.slots[id]
	s.fn = fn
	s.name = name
	e.heapPush(entry{at: at, seq: e.seq, id: id})
	return Event{eng: e, id: id, gen: s.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
//
//waschedlint:hotpath
func (e *Engine) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("des: event %q scheduled %v in the past", name, d))
	}
	return e.At(e.now.Add(d), name, fn)
}

// Cancel removes a pending event from the queue. Cancelling a zero, fired,
// already-cancelled, or stale (slot since recycled) event is a no-op and
// returns false.
//
//waschedlint:hotpath
func (e *Engine) Cancel(ev Event) bool {
	if ev.eng != e || !ev.live() {
		return false
	}
	e.heapRemove(int(e.slots[ev.id].pos))
	e.release(ev.id)
	return true
}

// Reschedule moves a pending event to a new time, preserving its callback.
// It draws a fresh sequence number, so the event fires exactly where
// Cancel followed by At would have put it. If the event already fired or
// was cancelled it returns false.
//
//waschedlint:hotpath
func (e *Engine) Reschedule(ev Event, at Time) bool {
	if ev.eng != e || !ev.live() {
		return false
	}
	s := &e.slots[ev.id]
	if at < e.now {
		panic(fmt.Sprintf("des: event %q rescheduled to %v before now %v", s.name, at, e.now))
	}
	e.seq++
	i := int(s.pos)
	e.heap[i].at = at
	e.heap[i].seq = e.seq
	e.heapFix(i)
	return true
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
//
//waschedlint:hotpath
func (e *Engine) Step() bool {
	li, _, ok := e.next()
	if !ok {
		return false
	}
	e.fire(li)
	return true
}

// Run executes events until the queue drains or the next event would fire
// after the deadline. The clock is left at the later of its current value
// and the deadline when the deadline is the binding constraint; otherwise
// at the time of the last executed event.
//
//waschedlint:hotpath
func (e *Engine) Run(until Time) {
	for {
		li, at, ok := e.next()
		if !ok || at > until {
			break
		}
		e.fire(li)
	}
	if e.now < until {
		// Nothing left to do before the deadline; park the clock there so
		// that callers observe a consistent "simulated through" time.
		e.now = until
	}
}

// next finds the earliest pending event: the lane whose head it is, or -1
// for the heap's root. ok is false when nothing is pending.
func (e *Engine) next() (li int, at Time, ok bool) {
	li = -1
	min := idle
	if len(e.heap) > 0 {
		min = e.heap[0]
	}
	for i := range e.heads {
		if e.heads[i].less(min) {
			li, min = i, e.heads[i]
		}
	}
	return li, min.at, min != idle
}

// fire executes the event next found: the heap's root for li < 0, else the
// head of lane li.
func (e *Engine) fire(li int) {
	if li < 0 {
		top := e.heapPopMin()
		if top.at < e.now {
			panic("des: corrupt event queue (time went backwards)")
		}
		e.now = top.at
		fn := e.slots[top.id].fn
		e.release(top.id)
		e.fired++
		fn()
		return
	}
	head := e.heads[li]
	if head.at < e.now {
		panic("des: corrupt event queue (time went backwards)")
	}
	e.now = head.at
	e.fired++
	e.slots[head.id].tick(e.now)
	// The ticker stays at its lane's head while the callback runs; a stop
	// from inside removed it. Re-arm it at the tail with a sequence number
	// drawn only now, as a fresh After would. Every other entry of the lane
	// was armed at or before now, so the new key is the lane's largest. In
	// a full ring the tail is the head slot this tick vacates.
	if e.heads[li] == head {
		l := &e.lanes[li]
		mask := len(l.ring) - 1
		e.seq++
		l.ring[(l.head+l.n)&mask] = entry{at: e.now.Add(l.period), seq: e.seq, id: head.id}
		l.head = (l.head + 1) & mask
		e.heads[li] = l.ring[l.head]
	}
}

// Ticker invokes fn every period, starting at the current time plus period,
// until the returned stop function is called. The callback receives the
// firing time. Tickers are a convenience for samplers and scheduling rounds.
// A tick orders against other events exactly like an event scheduled with
// After(period) when the previous tick's callback returned.
func (e *Engine) Ticker(period Duration, name string, fn func(Time)) (stop func()) {
	if period <= 0 {
		panic("des: ticker period must be positive")
	}
	li := e.laneFor(period)
	e.seq++
	id := e.alloc()
	s := &e.slots[id]
	s.tick = fn
	s.name = name
	gen := s.gen
	l := &e.lanes[li]
	if l.n == len(l.ring) {
		ring := make([]entry, 2*len(l.ring))
		for k := 0; k < l.n; k++ {
			ring[k] = l.ring[(l.head+k)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = entry{at: e.now.Add(period), seq: e.seq, id: id}
	l.n++
	e.heads[li] = l.ring[l.head]
	return func() { e.stopTicker(li, id, gen) }
}

// laneFor returns the index of the lane for period, creating it if no
// running or stopped ticker has had that period yet.
func (e *Engine) laneFor(period Duration) int {
	for i := range e.lanes {
		if e.lanes[i].period == period {
			return i
		}
	}
	e.lanes = append(e.lanes, lane{period: period, ring: make([]entry, 4)})
	e.heads = append(e.heads, idle)
	return len(e.lanes) - 1
}

// stopTicker removes a running ticker from its lane, closing the gap from
// the tail side so that the lane stays in order. Stopping a stopped ticker
// is a no-op.
func (e *Engine) stopTicker(li int, id int32, gen uint32) {
	if e.slots[id].gen != gen {
		return
	}
	l := &e.lanes[li]
	mask := len(l.ring) - 1
	for k := 0; k < l.n; k++ {
		p := (l.head + k) & mask
		if l.ring[p].id != id {
			continue
		}
		for ; k < l.n-1; k++ {
			p = (l.head + k) & mask
			l.ring[p] = l.ring[(p+1)&mask]
		}
		l.n--
		break
	}
	e.heads[li] = idle
	if l.n > 0 {
		e.heads[li] = l.ring[l.head]
	}
	e.release(id)
}

// alloc takes a slot from the free list, growing the pool only when every
// slot is in flight.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{pos: -1})
	return int32(len(e.slots) - 1)
}

// release recycles a slot that fired, was cancelled or whose ticker
// stopped: the generation bump invalidates every outstanding handle and
// stop function, and dropping the callbacks and name releases whatever the
// closures captured.
func (e *Engine) release(id int32) {
	s := &e.slots[id]
	s.gen++
	s.fn = nil
	s.tick = nil
	s.name = ""
	s.pos = -1
	e.free = append(e.free, id)
}

// The 4-ary heap of one-shot entries. A sift carries the moving entry in
// a hole and writes each displaced entry's slot position once; keys are
// unique, so the heap's shape never decides a firing order.

const arity = 4

func (e *Engine) heapPush(x entry) {
	e.heap = append(e.heap, x)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) heapPopMin() entry {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	e.heap = h[:last]
	if last > 0 {
		h[0] = h[last]
		e.siftDown(0)
	}
	return top
}

// heapRemove removes the entry at heap position i: the last entry takes
// its place and re-sifts whichever way restores order.
func (e *Engine) heapRemove(i int) {
	h := e.heap
	last := len(h) - 1
	e.heap = h[:last]
	if i < last {
		h[i] = h[last]
		e.heapFix(i)
	}
}

// heapFix restores order after the entry at position i changed key.
func (e *Engine) heapFix(i int) {
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !x.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slots[h[i].id].pos = int32(i)
		i = parent
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
}

// siftDown reports whether the entry moved, so heapFix can decide whether
// to sift up instead.
func (e *Engine) siftDown(i int) bool {
	h := e.heap
	n := len(h)
	x := h[i]
	start := i
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		least := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(h[least]) {
				least = c
			}
		}
		if !h[least].less(x) {
			break
		}
		h[i] = h[least]
		e.slots[h[i].id].pos = int32(i)
		i = least
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
	return i > start
}
