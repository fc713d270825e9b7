package sos

import "wasched/internal/des"

// firstAfter returns the oldest record of a source with At >= at: the
// forward counterpart of LastBefore that the tests probe chunk and trim
// boundaries with.
func (c *Container) firstAfter(source string, at des.Time) (Record, bool) {
	s := c.lookup(source)
	if s == nil {
		return Record{}, false
	}
	i := s.lowerBound(at)
	if i >= s.n {
		return Record{}, false
	}
	return s.record(i), true
}
