package des

import "fmt"

// Pending reports whether the event is still queued.
func (ev Event) Pending() bool { return ev.live() }

// Pending returns the number of queued one-shot events plus the number of
// running tickers. A ticker counts while its own callback runs, unless the
// callback stops it.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// RunUntilIdle executes events until the queue is empty. The limit guards
// against runaway self-rescheduling models: exceeding it panics with a
// diagnostic rather than hanging the test suite. Pass 0 for no limit.
func (e *Engine) RunUntilIdle(limit uint64) {
	start := e.fired
	for e.Step() {
		if limit != 0 && e.fired-start > limit {
			panic(fmt.Sprintf("des: RunUntilIdle exceeded %d events (next %q at %v)",
				limit, e.peekName(), e.now))
		}
	}
}

func (e *Engine) peekName() string {
	li, _, ok := e.next()
	switch {
	case !ok:
		return "<none>"
	case li < 0:
		return e.slots[e.heap[0].id].name
	default:
		return e.slots[e.heads[li].id].name
	}
}
