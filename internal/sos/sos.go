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
// Storage is columnar and chunked: each source's Series keeps its
// timestamps and its row-major values in fixed-size chunks of chunkRows
// rows, so an append copies the row into a chunk instead of allocating
// it, and no row is ever copied after it is appended. Records returned by
// queries are capped views into the chunks. Trim advances a head index
// past the expired rows and drops a chunk once every row in it has
// expired; it never writes in place, so records handed out earlier stay
// valid. A retention trim costs O(1) per expired row, whatever the window.
//
// A caller that appends or queries one source repeatedly resolves its
// Series handle once (Container.Series) instead of naming the source on
// every call.
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
	bySource map[string]*Series
	order    []*Series // first-appended order, for deterministic iteration
	count    int
}

// chunkRows is the number of rows a chunk holds. Every chunk of a series
// but the newest is full, so live row k sits in chunk (head+k)/chunkRows.
const chunkRows = 1024

// chunk is up to chunkRows consecutive rows of one series: their times and
// their values, row-major. A chunk is only ever appended to, so a written
// row never changes; a chunk allocated at full capacity never moves one.
type chunk struct {
	times []des.Time
	vals  []float64 // len(times)×width
}

// Series is one source's records in columnar form, ordered by time
// (samplers emit monotonically). It is also the handle through which a
// caller appends to and queries one source without a lookup by name.
type Series struct {
	c      *Container
	source string
	// listed is set by the first append, which puts the series in the
	// container's source order.
	listed bool
	// chunks[0] holds the oldest live row at index head; dropped chunks
	// are cut off the front. The headers are values, so a chunk costs
	// two allocations, its time and its value columns.
	chunks []chunk
	head   int
	n      int      // live rows
	last   des.Time // the newest row's time, when n > 0
}

// loc returns the chunk and the in-chunk index of live row k.
func (s *Series) loc(k int) (*chunk, int) {
	a := uint(s.head + k)
	return &s.chunks[a/chunkRows], int(a % chunkRows)
}

func (s *Series) time(k int) des.Time {
	ch, i := s.loc(k)
	return ch.times[i]
}

// row returns live row k's values as a view whose capacity ends with the
// row, so an append to it reallocates instead of overwriting the next row.
func (s *Series) row(k int) []float64 {
	ch, i := s.loc(k)
	w := s.c.width
	return ch.vals[i*w : (i+1)*w : (i+1)*w]
}

func (s *Series) record(k int) Record {
	return Record{At: s.time(k), Source: s.source, Values: s.row(k)}
}

// lowerBound returns the index of the first live row with time >= t.
func (s *Series) lowerBound(t des.Time) int {
	if s.n == 0 {
		return 0
	}
	// The first chunk whose newest row is >= t holds the answer; when
	// there are live rows, every chunk's newest row is live.
	lo, hi := 0, len(s.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts := s.chunks[m].times; ts[len(ts)-1] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(s.chunks) {
		return s.n
	}
	from := 0
	if lo == 0 {
		from = s.head
	}
	i, _ := slices.BinarySearch(s.chunks[lo].times[from:], t)
	return lo*chunkRows + from + i - s.head
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
	c := &Container{schema: schema, width: len(schema.Metrics), bySource: make(map[string]*Series)}
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

// Series returns the handle of one source's series, creating it on first
// sight. The source joins Sources() at its first append, not here, so
// resolving handles up front leaves the first-appended order as it is.
func (c *Container) Series(source string) *Series {
	s, ok := c.bySource[source]
	if !ok {
		s = &Series{c: c, source: source}
		c.bySource[source] = s
	}
	return s
}

// lookup returns a source's series, or nil if nothing was ever appended
// to it.
func (c *Container) lookup(source string) *Series {
	if s := c.bySource[source]; s != nil && s.listed {
		return s
	}
	return nil
}

// list puts s in the container's source order unless it already is.
func (c *Container) list(s *Series) {
	if !s.listed {
		s.listed = true
		c.order = append(c.order, s)
	}
}

// Append adds one record. Values must match the schema width, and time must
// not go backwards within a source (samplers are monotone).
func (c *Container) Append(source string, at des.Time, values []float64) error {
	return c.Series(source).Append(at, values)
}

// Append adds one record to the series; see Container.Append.
//
//waschedlint:hotpath
func (s *Series) Append(at des.Time, values []float64) error {
	c := s.c
	if len(values) != c.width {
		//waschedlint:allow hotalloc error path: a width mismatch is a caller bug, never taken by the samplers
		return fmt.Errorf("sos: container %q: got %d values, schema has %d", c.schema.Name, len(values), c.width)
	}
	if s.n > 0 && at < s.last {
		//waschedlint:allow hotalloc error path: time going backwards is a caller bug, never taken by the samplers
		return fmt.Errorf("sos: container %q source %q: time %v precedes last %v", c.schema.Name, s.source, at, s.last)
	}
	c.list(s)
	// A series' first chunk grows by append, so short runs and small
	// sources never pay for a whole chunk; its rows are copied only while
	// it grows, and records handed out keep the old arrays. Every later
	// chunk is allocated whole and never regrows.
	k := len(s.chunks)
	if k == 0 {
		s.chunks = append(s.chunks, chunk{})
		k = 1
	} else if len(s.chunks[k-1].times) == chunkRows {
		//waschedlint:allow hotalloc once per chunk: a later chunk's columns are allocated whole
		s.chunks = append(s.chunks, chunk{times: make([]des.Time, 0, chunkRows), vals: make([]float64, 0, chunkRows*c.width)})
		k++
	}
	ch := &s.chunks[k-1]
	ch.times = append(ch.times, at)
	ch.vals = append(ch.vals, values...)
	s.last = at
	s.n++
	c.count++
	return nil
}

// RangeBySource returns the records of one source with lo <= At < hi in
// time order.
func (c *Container) RangeBySource(source string, lo, hi des.Time) []Record {
	s := c.lookup(source)
	if s == nil {
		return nil
	}
	return s.rangeOf(lo, hi)
}

func (s *Series) rangeOf(lo, hi des.Time) []Record {
	i := s.lowerBound(lo)
	j := max(i, s.lowerBound(hi))
	out := make([]Record, 0, j-i)
	for k := i; k < j; k++ {
		out = append(out, s.record(k))
	}
	return out
}

// LastBefore returns the newest record of a source with At <= at.
func (c *Container) LastBefore(source string, at des.Time) (Record, bool) {
	s := c.lookup(source)
	if s == nil {
		return Record{}, false
	}
	i := s.n // one past the last record with At <= at
	if at < des.MaxTime {
		i = s.lowerBound(at + 1)
	}
	if i == 0 {
		return Record{}, false
	}
	return s.record(i - 1), true
}

// DeltaOver computes, for one source and one metric column, the increase of
// a cumulative counter over [lo, hi], interpolating linearly between
// samples at the boundaries. It returns false when the source has no
// samples bracketing any part of the window.
func (c *Container) DeltaOver(source string, col int, lo, hi des.Time) (float64, bool) {
	s := c.lookup(source)
	if s == nil {
		return 0, false
	}
	return s.DeltaOver(col, lo, hi)
}

// DeltaOver is Container.DeltaOver for this series.
func (s *Series) DeltaOver(col int, lo, hi des.Time) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	a, okA := s.At(lo)
	b, okB := s.At(hi)
	if !okA || !okB {
		return 0, false
	}
	return b.Value(col) - a.Value(col), true
}

// Point is a position in a series at which any column of a cumulative
// counter can be interpolated: one search serves every column.
type Point struct {
	v0, v1 []float64
	f      float64
	// clamped is set before the first or after the last sample, where
	// the value is v0's.
	clamped bool
}

// At locates time t in the series for linear interpolation between the
// samples around it, clamped to the first and last sample. It returns
// false when the series holds no records.
func (s *Series) At(t des.Time) (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	i := s.lowerBound(t)
	if i == 0 {
		return Point{v0: s.row(0), clamped: true}, true
	}
	if i == s.n {
		return Point{v0: s.row(i - 1), clamped: true}, true
	}
	t0, t1 := s.time(i-1), s.time(i)
	return Point{v0: s.row(i - 1), v1: s.row(i), f: float64(t-t0) / float64(t1-t0)}, true
}

// Value returns the interpolated value of one column at the point.
func (p Point) Value(col int) float64 {
	if p.clamped {
		return p.v0[col]
	}
	v0, v1 := p.v0[col], p.v1[col]
	return v0 + p.f*(v1-v0)
}

// Trim discards records older than the cutoff to bound memory during long
// runs. Records exactly at the cutoff are retained. It advances each
// series' head past the expired rows without copying, so its cost is
// proportional to the rows it removes, not to the rows retained.
//
//waschedlint:hotpath
func (c *Container) Trim(before des.Time) int {
	removed := 0
	for _, s := range c.order {
		removed += s.trim(before)
	}
	c.count -= removed
	return removed
}

// trim advances the head past the rows older than before and drops every
// chunk whose rows have all expired. A dropped chunk's slot is cleared
// before the slice is cut past it, so the header array keeps no expired
// column alive.
func (s *Series) trim(before des.Time) int {
	removed := 0
	for s.n > 0 {
		ch := &s.chunks[0]
		k := s.head
		for k < len(ch.times) && ch.times[k] < before {
			k++
		}
		removed += k - s.head
		s.n -= k - s.head
		s.head = k
		if k < chunkRows {
			break
		}
		s.chunks[0] = chunk{}
		s.chunks = s.chunks[1:]
		s.head = 0
	}
	return removed
}
