package des

import (
	"fmt"
	"testing"
)

// FuzzEngineOrder drives the engine and a naive reference queue with the
// same script and requires the same log from both: every firing with its
// label and time, every Cancel/Reschedule result, and every Pending, At
// and Name answer. The script schedules, cancels (zero and stale handles
// too) and reschedules one-shot events, starts tickers of up to three
// periods at top level and inside callbacks, stops them from their own
// callback, from other callbacks and from top level, and parks the clock
// with Run(until). After every top-level operation the engine's queue is
// checked for heap order, slot positions and sorted lanes.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{4, 0, 4, 1, 4, 2, 0, 3, 7, 7, 7, 8, 6, 6, 5, 0, 8, 9})
	f.Add([]byte{4, 1, 1, 0, 1, 4, 3, 2, 2, 0, 1, 1, 4, 5, 9, 1, 2, 8, 7, 5, 3, 6, 9, 8, 14})
	f.Add([]byte{0, 3, 1, 3, 3, 0, 4, 0, 22, 5, 1, 4, 2, 8, 6, 2, 1, 7, 2, 0, 8, 11, 5, 0, 8, 13})
	f.Add([]byte{4, 0, 1, 2, 4, 13, 5, 2, 4, 9, 7, 0, 7, 1, 7, 2, 8, 5, 6, 0, 5, 1, 8, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got := runScript(&engineQueue{t: t, e: NewEngine()}, data)
		want := runScript(&refQueue{}, data)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("log line %d: engine %q, reference %q", i, g, w)
			}
		}
	})
}

// queue is what a script drives: the engine, or the reference. Handles are
// indices in creation order; -1 is the zero handle.
type queue interface {
	now() Time
	at(t Time, name string, fn func()) // appends a handle
	after(d Duration, name string, fn func())
	cancel(h int) bool
	reschedule(h int, t Time) bool
	ticker(p Duration, name string, fn func(Time)) func()
	step() bool
	run(until Time)
	pending() int
	fired() uint64
	query(h int) (at Time, name string, pending bool)
	afterOp()
}

type script struct {
	q       queue
	data    []byte
	pos     int
	budget  int
	handles int
	stops   []func()
	log     []string
}

var fuzzPeriods = [3]Duration{Second, 2 * Second, 5 * Second}

func runScript(q queue, data []byte) []string {
	s := &script{q: q, data: data, budget: 400}
	for s.pos < len(s.data) && s.budget > 0 {
		s.op(-1, false)
		q.afterOp()
	}
	s.logf("end pending=%d", q.pending())
	for i, stop := range s.stops {
		stop()
		s.logf("stop t%d pending=%d", i, q.pending())
	}
	for n := 0; n < 10000 && q.step(); n++ {
	}
	q.afterOp()
	s.logf("drained now=%v pending=%d fired=%d", q.now(), q.pending(), q.fired())
	return s.log
}

func (s *script) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *script) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

// nested runs the operations a callback performs: up to two, while the
// script and its budget last. self is the running ticker, or -1.
func (s *script) nested(self int) {
	if s.pos >= len(s.data) {
		return
	}
	for n := int(s.byte() % 3); n > 0 && s.budget > 0 && s.pos < len(s.data); n-- {
		s.op(self, true)
	}
}

// op decodes and performs one operation. Inside a callback, Step and Run
// become queries: callbacks must not drive the engine.
func (s *script) op(self int, inCallback bool) {
	s.budget--
	kind, arg := s.byte()%9, s.byte()
	if inCallback && kind >= 7 {
		kind = 6
	}
	q := s.q
	d := Duration(arg%8) * Second
	h := int(arg)%(s.handles+1) - 1
	switch kind {
	case 0, 1:
		label := fmt.Sprintf("e%d", s.handles)
		fn := func() {
			s.logf("fire %s now=%v pending=%d", label, q.now(), q.pending())
			s.nested(-1)
		}
		if kind == 0 {
			q.at(q.now().Add(d), label, fn)
		} else {
			q.after(d, label, fn)
		}
		s.handles++
	case 2:
		s.logf("cancel %d -> %v", h, q.cancel(h))
	case 3:
		s.logf("reschedule %d +%v -> %v", h, d, q.reschedule(h, q.now().Add(d)))
	case 4:
		k := len(s.stops)
		label := fmt.Sprintf("t%d", k)
		s.stops = append(s.stops, q.ticker(fuzzPeriods[arg%3], label, func(now Time) {
			s.logf("tick %s at=%v now=%v pending=%d", label, now, q.now(), q.pending())
			s.nested(k)
		}))
	case 5:
		// arg picks a ticker; one past the last picks the running one.
		k := int(arg) % (len(s.stops) + 1)
		if k == len(s.stops) {
			k = self
		}
		if k >= 0 {
			s.stops[k]()
			s.logf("stop t%d pending=%d", k, q.pending())
		}
	case 6:
		at, name, pending := q.query(h)
		s.logf("query %d: at=%v name=%q pending=%v; queue pending=%d", h, at, name, pending, q.pending())
	case 7:
		s.logf("step -> %v now=%v", q.step(), q.now())
	case 8:
		until := q.now().Add(Duration(arg%8) * 500 * Millisecond)
		q.run(until)
		s.logf("run %v now=%v pending=%d", until, q.now(), q.pending())
	}
}

// engineQueue adapts Engine to the script.
type engineQueue struct {
	t       *testing.T
	e       *Engine
	handles []Event
}

func (q *engineQueue) now() Time { return q.e.Now() }
func (q *engineQueue) at(t Time, name string, fn func()) {
	q.handles = append(q.handles, q.e.At(t, name, fn))
}
func (q *engineQueue) after(d Duration, name string, fn func()) {
	q.handles = append(q.handles, q.e.After(d, name, fn))
}
func (q *engineQueue) handle(h int) Event {
	if h < 0 {
		return Event{}
	}
	return q.handles[h]
}
func (q *engineQueue) cancel(h int) bool { return q.e.Cancel(q.handle(h)) }
func (q *engineQueue) reschedule(h int, t Time) bool {
	return q.e.Reschedule(q.handle(h), t)
}
func (q *engineQueue) ticker(p Duration, name string, fn func(Time)) func() {
	return q.e.Ticker(p, name, fn)
}
func (q *engineQueue) step() bool     { return q.e.Step() }
func (q *engineQueue) run(until Time) { q.e.Run(until) }
func (q *engineQueue) pending() int   { return q.e.Pending() }
func (q *engineQueue) fired() uint64  { return q.e.Fired() }
func (q *engineQueue) afterOp()       { checkQueue(q.t, q.e) }
func (q *engineQueue) query(h int) (Time, string, bool) {
	ev := q.handle(h)
	return ev.At(), ev.Name(), ev.Pending()
}

// refQueue is the reference: pending events in a slice, scanned for the
// least (at, seq) on every step. A ticker is an event that, once its
// callback returns and unless it was stopped, schedules its successor one
// period on.
type refQueue struct {
	clock   Time
	seq     uint64
	items   []*refItem
	handles []*refItem
	tickers int
	nfired  uint64
}

type refItem struct {
	at     Time
	seq    uint64
	name   string
	fn     func()
	ticker *refTicker
	queued bool
}

type refTicker struct {
	period  Duration
	fn      func(Time)
	item    *refItem
	stopped bool
}

func (q *refQueue) push(it *refItem) {
	q.seq++
	it.seq = q.seq
	it.queued = true
	q.items = append(q.items, it)
}

func (q *refQueue) remove(it *refItem) {
	for i, x := range q.items {
		if x == it {
			q.items = append(q.items[:i], q.items[i+1:]...)
			break
		}
	}
	it.queued = false
}

// min returns the index of the earliest pending item, or -1.
func (q *refQueue) min() int {
	m := -1
	for i, it := range q.items {
		if m < 0 || it.at < q.items[m].at || (it.at == q.items[m].at && it.seq < q.items[m].seq) {
			m = i
		}
	}
	return m
}

func (q *refQueue) now() Time { return q.clock }
func (q *refQueue) at(t Time, name string, fn func()) {
	it := &refItem{at: t, name: name, fn: fn}
	q.push(it)
	q.handles = append(q.handles, it)
}
func (q *refQueue) after(d Duration, name string, fn func()) { q.at(q.clock.Add(d), name, fn) }
func (q *refQueue) handle(h int) *refItem {
	if h < 0 || !q.handles[h].queued {
		return nil
	}
	return q.handles[h]
}
func (q *refQueue) cancel(h int) bool {
	it := q.handle(h)
	if it == nil {
		return false
	}
	q.remove(it)
	return true
}
func (q *refQueue) reschedule(h int, t Time) bool {
	it := q.handle(h)
	if it == nil {
		return false
	}
	q.remove(it)
	it.at = t
	q.push(it)
	return true
}
func (q *refQueue) ticker(p Duration, name string, fn func(Time)) func() {
	tk := &refTicker{period: p, fn: fn}
	tk.item = &refItem{at: q.clock.Add(p), name: name, ticker: tk}
	q.push(tk.item)
	q.tickers++
	return func() {
		if tk.stopped {
			return
		}
		tk.stopped = true
		q.tickers--
		if tk.item.queued {
			q.remove(tk.item)
		}
	}
}
func (q *refQueue) step() bool {
	m := q.min()
	if m < 0 {
		return false
	}
	it := q.items[m]
	q.remove(it)
	q.clock = it.at
	q.nfired++
	if tk := it.ticker; tk != nil {
		tk.fn(q.clock)
		if !tk.stopped {
			tk.item = &refItem{at: q.clock.Add(tk.period), name: it.name, ticker: tk}
			q.push(tk.item)
		}
		return true
	}
	it.fn()
	return true
}
func (q *refQueue) run(until Time) {
	for m := q.min(); m >= 0 && q.items[m].at <= until; m = q.min() {
		q.step()
	}
	if q.clock < until {
		q.clock = until
	}
}
func (q *refQueue) pending() int {
	n := q.tickers
	for _, it := range q.items {
		if it.ticker == nil {
			n++
		}
	}
	return n
}
func (q *refQueue) fired() uint64 { return q.nfired }
func (q *refQueue) afterOp()      {}
func (q *refQueue) query(h int) (Time, string, bool) {
	it := q.handle(h)
	if it == nil {
		return 0, "", false
	}
	return it.at, it.name, true
}

// checkQueue asserts the engine's queue invariants: the heap is a 4-ary
// min-heap whose slots know their positions, and every lane is sorted
// with live entries and mirrored head.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	for i, x := range e.heap {
		if i > 0 && x.less(e.heap[(i-1)/arity]) {
			t.Fatalf("heap entry %d orders before its parent", i)
		}
		if s := &e.slots[x.id]; int(s.pos) != i || s.fn == nil {
			t.Fatalf("heap entry %d: slot %d has pos %d", i, x.id, s.pos)
		}
	}
	for li := range e.lanes {
		l := &e.lanes[li]
		mask := len(l.ring) - 1
		if head := e.heads[li]; (l.n == 0 && head != idle) || (l.n > 0 && head != l.ring[l.head]) {
			t.Fatalf("lane %d: mirrored head %+v is not its first entry", li, head)
		}
		for k := 0; k < l.n; k++ {
			x := l.ring[(l.head+k)&mask]
			if s := &e.slots[x.id]; s.tick == nil || s.pos != -1 {
				t.Fatalf("lane %d entry %d refers to a dead ticker", li, k)
			}
			if k > 0 && x.less(l.ring[(l.head+k-1)&mask]) {
				t.Fatalf("lane %d (period %v) out of order at entry %d", li, l.period, k)
			}
		}
	}
}
