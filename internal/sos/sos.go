// Package sos is a stand-in for LDMS's Scalable Object Store: an in-memory,
// append-only, schema'd time-series store.
//
// The monitoring pipeline (internal/ldms) appends one record per node per
// sampling period into a container; the analytical services
// (internal/analytics) query containers by source and time range to compute
// job resource usage and the current total file-system throughput. Keeping
// this layer explicit — instead of letting the scheduler read simulator
// ground truth — preserves the estimate-versus-reality gap that the paper's
// design contends with.
//
// Storage is columnar: each source keeps its timestamps in one slice and
// its values in one flat row-major slice of len(times)×width, so an append
// copies the row into shared storage instead of allocating it. Records
// returned by queries are capped views into that storage. Trim reslices
// past the expired rows and never writes in place, so records handed out
// earlier stay valid; the expired prefix is dropped when a later append
// outgrows the capacity and copies only the live rows. A retention trim
// therefore costs amortized O(1) per appended row, whatever the window.
package sos

import (
	"fmt"
	"slices"

	"wasched/internal/des"
)

// Schema describes the metric columns of a container.
type Schema struct {
	Name    string
	Metrics []string
}

// Validate checks the schema for empty or duplicate names.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sos: schema needs a name")
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("sos: schema %q needs at least one metric", s.Name)
	}
	seen := make(map[string]bool, len(s.Metrics))
	for _, m := range s.Metrics {
		if m == "" {
			return fmt.Errorf("sos: schema %q has an empty metric name", s.Name)
		}
		if seen[m] {
			return fmt.Errorf("sos: schema %q has duplicate metric %q", s.Name, m)
		}
		seen[m] = true
	}
	return nil
}

// Column returns the index of a metric in the schema, or -1.
func (s Schema) Column(metric string) int {
	for i, m := range s.Metrics {
		if m == metric {
			return i
		}
	}
	return -1
}

// Record is one appended sample as returned by queries.
type Record struct {
	At     des.Time
	Source string
	Values []float64 // aligned with Schema.Metrics; a view into the store, do not mutate
}

// Value returns the record's value in the given schema column.
func (r Record) Value(col int) float64 { return r.Values[col] }

// Container is an append-only series of records under one schema, indexed
// by source and time.
type Container struct {
	schema   Schema
	width    int // len(schema.Metrics)
	bySource map[string]*series
	order    []*series // first-seen order, for deterministic iteration
	count    int
}

// series is one source's records in columnar form. Records within a
// source are ordered by time (samplers emit monotonically).
type series struct {
	source string
	times  []des.Time
	vals   []float64 // row-major, len(times)×width
}

// row returns record k's values as a view whose capacity ends with the
// row, so an append to it reallocates instead of overwriting record k+1.
func (s *series) row(k, w int) []float64 {
	return s.vals[k*w : (k+1)*w : (k+1)*w]
}

func (s *series) record(k, w int) Record {
	return Record{At: s.times[k], Source: s.source, Values: s.row(k, w)}
}

// lowerBound returns the index of the first time >= t.
func lowerBound(times []des.Time, t des.Time) int {
	i, _ := slices.BinarySearch(times, t)
	return i
}

// Store is a named collection of containers.
type Store struct {
	containers map[string]*Container
	names      []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{containers: make(map[string]*Container)}
}

// CreateContainer adds a container for the schema. Creating a container
// that already exists with an identical schema returns the existing one;
// a conflicting schema is an error.
func (st *Store) CreateContainer(schema Schema) (*Container, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if c, ok := st.containers[schema.Name]; ok {
		if !schemaEqual(c.schema, schema) {
			return nil, fmt.Errorf("sos: container %q exists with a different schema", schema.Name)
		}
		return c, nil
	}
	c := &Container{schema: schema, width: len(schema.Metrics), bySource: make(map[string]*series)}
	st.containers[schema.Name] = c
	st.names = append(st.names, schema.Name)
	return c, nil
}

// Container returns a container by name.
func (st *Store) Container(name string) (*Container, bool) {
	c, ok := st.containers[name]
	return c, ok
}

// Names returns container names in creation order.
func (st *Store) Names() []string {
	out := make([]string, len(st.names))
	copy(out, st.names)
	return out
}

func schemaEqual(a, b Schema) bool {
	if a.Name != b.Name || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for i := range a.Metrics {
		if a.Metrics[i] != b.Metrics[i] {
			return false
		}
	}
	return true
}

// Schema returns the container's schema.
func (c *Container) Schema() Schema { return c.schema }

// Len returns the total number of records in the container.
func (c *Container) Len() int { return c.count }

// Sources returns the source names seen so far, in first-seen order.
func (c *Container) Sources() []string {
	out := make([]string, len(c.order))
	for i, s := range c.order {
		out[i] = s.source
	}
	return out
}

// Append adds one record. Values must match the schema width, and time must
// not go backwards within a source (samplers are monotone).
//
//waschedlint:hotpath
func (c *Container) Append(source string, at des.Time, values []float64) error {
	if len(values) != c.width {
		//waschedlint:allow hotalloc error path: a width mismatch is a caller bug, never taken by the samplers
		return fmt.Errorf("sos: container %q: got %d values, schema has %d", c.schema.Name, len(values), c.width)
	}
	s := c.seriesOf(source)
	if n := len(s.times); n > 0 && at < s.times[n-1] {
		//waschedlint:allow hotalloc error path: time going backwards is a caller bug, never taken by the samplers
		return fmt.Errorf("sos: container %q source %q: time %v precedes last %v", c.schema.Name, source, at, s.times[n-1])
	}
	s.times = append(s.times, at)
	s.vals = append(s.vals, values...)
	c.count++
	return nil
}

// seriesOf returns the source's series, creating it on first sight.
func (c *Container) seriesOf(source string) *series {
	s, ok := c.bySource[source]
	if !ok {
		//waschedlint:allow hotalloc once per source: the first record of a node creates its series
		s = &series{source: source}
		c.bySource[source] = s
		c.order = append(c.order, s)
	}
	return s
}

// Range returns all records with lo <= At < hi across all sources, ordered
// by source (first-seen order) then time.
func (c *Container) Range(lo, hi des.Time) []Record {
	var out []Record
	for _, s := range c.order {
		out = append(out, c.RangeBySource(s.source, lo, hi)...)
	}
	return out
}

// RangeBySource returns the records of one source with lo <= At < hi in
// time order.
func (c *Container) RangeBySource(source string, lo, hi des.Time) []Record {
	s, ok := c.bySource[source]
	if !ok {
		return nil
	}
	i := lowerBound(s.times, lo)
	j := max(i, lowerBound(s.times, hi))
	out := make([]Record, 0, j-i)
	for k := i; k < j; k++ {
		out = append(out, s.record(k, c.width))
	}
	return out
}

// LastBefore returns the newest record of a source with At <= at.
func (c *Container) LastBefore(source string, at des.Time) (Record, bool) {
	s, ok := c.bySource[source]
	if !ok {
		return Record{}, false
	}
	i := len(s.times) // one past the last record with At <= at
	if at < des.MaxTime {
		i = lowerBound(s.times, at+1)
	}
	if i == 0 {
		return Record{}, false
	}
	return s.record(i-1, c.width), true
}

// FirstAfter returns the oldest record of a source with At >= at.
func (c *Container) FirstAfter(source string, at des.Time) (Record, bool) {
	s, ok := c.bySource[source]
	if !ok {
		return Record{}, false
	}
	i := lowerBound(s.times, at)
	if i >= len(s.times) {
		return Record{}, false
	}
	return s.record(i, c.width), true
}

// DeltaOver computes, for one source and one metric column, the increase of
// a cumulative counter over [lo, hi], interpolating linearly between
// samples at the boundaries. It returns false when the source has no
// samples bracketing any part of the window.
func (c *Container) DeltaOver(source string, col int, lo, hi des.Time) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	a, okA := c.interp(source, col, lo)
	b, okB := c.interp(source, col, hi)
	if !okA || !okB {
		return 0, false
	}
	return b - a, true
}

// interp estimates the cumulative counter value at time t by linear
// interpolation (clamped to the first/last sample).
func (c *Container) interp(source string, col int, t des.Time) (float64, bool) {
	s, ok := c.bySource[source]
	if !ok || len(s.times) == 0 {
		return 0, false
	}
	w := c.width
	i := lowerBound(s.times, t)
	if i == 0 {
		return s.row(0, w)[col], true
	}
	if i == len(s.times) {
		return s.row(i-1, w)[col], true
	}
	t0, t1 := s.times[i-1], s.times[i]
	v0, v1 := s.row(i-1, w)[col], s.row(i, w)[col]
	f := float64(t-t0) / float64(t1-t0)
	return v0 + f*(v1-v0), true
}

// Trim discards records older than the cutoff to bound memory during long
// runs. Records exactly at the cutoff are retained. It reslices past the
// expired rows without copying, so its cost does not depend on how many
// rows are retained.
//
//waschedlint:hotpath
func (c *Container) Trim(before des.Time) int {
	removed := 0
	for _, s := range c.order {
		i := lowerBound(s.times, before)
		removed += i
		s.times = s.times[i:]
		s.vals = s.vals[i*c.width:]
	}
	c.count -= removed
	return removed
}
