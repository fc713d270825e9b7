package sos

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"wasched/internal/des"
)

func ts(sec int64) des.Time { return des.Time(sec) * des.Time(des.Second) }

func testSchema() Schema {
	return Schema{Name: "lustre_client", Metrics: []string{"write_bytes", "read_bytes"}}
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Name: "", Metrics: []string{"a"}},
		{Name: "x", Metrics: nil},
		{Name: "x", Metrics: []string{""}},
		{Name: "x", Metrics: []string{"a", "a"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d must fail validation", i)
		}
	}
}

func TestSchemaColumn(t *testing.T) {
	s := testSchema()
	if s.Column("write_bytes") != 0 || s.Column("read_bytes") != 1 || s.Column("nope") != -1 {
		t.Fatal("Column lookup broken")
	}
}

func TestCreateContainerIdempotent(t *testing.T) {
	st := NewStore()
	a, err := st.CreateContainer(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.CreateContainer(testSchema())
	if err != nil || a != b {
		t.Fatal("same schema must return the same container")
	}
	conflicting := Schema{Name: "lustre_client", Metrics: []string{"other"}}
	if _, err := st.CreateContainer(conflicting); err == nil {
		t.Fatal("conflicting schema must error")
	}
	if _, err := st.CreateContainer(Schema{}); err == nil {
		t.Fatal("invalid schema must error")
	}
	if got, ok := st.Container("lustre_client"); !ok || got != a {
		t.Fatal("Container lookup")
	}
	if _, ok := st.Container("absent"); ok {
		t.Fatal("absent container must not be found")
	}
	if n := st.Names(); len(n) != 1 || n[0] != "lustre_client" {
		t.Fatalf("Names: %v", n)
	}
}

func TestAppendAndRange(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 10; i++ {
		if err := c.Append("n1", ts(i), []float64{float64(i * 100), 0}); err != nil {
			t.Fatal(err)
		}
		if err := c.Append("n2", ts(i), []float64{float64(i * 200), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 20 {
		t.Fatalf("len = %d", c.Len())
	}
	recs := c.RangeBySource("n1", ts(3), ts(6))
	if len(recs) != 3 || recs[0].At != ts(3) || recs[2].At != ts(5) {
		t.Fatalf("range: %+v", recs)
	}
	if recs[1].Value(0) != 400 {
		t.Fatalf("value: %v", recs[1].Value(0))
	}
	if n := len(c.RangeBySource("n1", ts(0), ts(2))) + len(c.RangeBySource("n2", ts(0), ts(2))); n != 4 {
		t.Fatalf("cross-source range: %d", n)
	}
	if srcs := c.Sources(); len(srcs) != 2 || srcs[0] != "n1" || srcs[1] != "n2" {
		t.Fatalf("sources: %v", srcs)
	}
	if got := c.RangeBySource("ghost", ts(0), ts(100)); got != nil {
		t.Fatal("unknown source must return nil")
	}
}

func TestAppendErrors(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	if err := c.Append("n1", ts(5), []float64{1}); err == nil {
		t.Fatal("wrong width must error")
	}
	if err := c.Append("n1", ts(5), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("n1", ts(4), []float64{1, 2}); err == nil {
		t.Fatal("time going backwards must error")
	}
	if err := c.Append("n1", ts(5), []float64{2, 3}); err != nil {
		t.Fatal("equal timestamps are allowed:", err)
	}
}

func TestAppendCopiesValues(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	row := []float64{1, 2}
	_ = c.Append("n1", ts(0), row)
	row[0] = 999
	if got := c.RangeBySource("n1", ts(0), ts(1))[0].Value(0); got != 1 {
		t.Fatalf("Append must copy values, got %v", got)
	}
}

func TestLastBeforeFirstAfter(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 5; i++ {
		_ = c.Append("n1", ts(i*10), []float64{float64(i), 0})
	}
	r, ok := c.LastBefore("n1", ts(25))
	if !ok || r.At != ts(20) {
		t.Fatalf("LastBefore: %v %v", r, ok)
	}
	r, ok = c.LastBefore("n1", ts(20))
	if !ok || r.At != ts(20) {
		t.Fatalf("LastBefore inclusive: %v %v", r, ok)
	}
	if _, ok := c.LastBefore("n1", ts(0)-1); ok {
		t.Fatal("LastBefore earlier than all samples must fail")
	}
	if _, ok := c.LastBefore("ghost", ts(100)); ok {
		t.Fatal("LastBefore on unknown source must fail")
	}
	r, ok = c.firstAfter("n1", ts(25))
	if !ok || r.At != ts(30) {
		t.Fatalf("FirstAfter: %v %v", r, ok)
	}
	if _, ok := c.firstAfter("n1", ts(41)); ok {
		t.Fatal("FirstAfter past the end must fail")
	}
	if _, ok := c.firstAfter("ghost", ts(0)); ok {
		t.Fatal("FirstAfter on unknown source must fail")
	}
}

func TestDeltaOverInterpolates(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	// Counter grows 100 bytes/s, sampled every 10 s.
	for i := int64(0); i <= 10; i++ {
		_ = c.Append("n1", ts(i*10), []float64{float64(i * 1000), 0})
	}
	d, ok := c.DeltaOver("n1", 0, ts(15), ts(35))
	if !ok || math.Abs(d-2000) > 1e-9 {
		t.Fatalf("delta = %v %v, want 2000", d, ok)
	}
	// Clamped outside the sampled range: no growth before first sample.
	d, ok = c.DeltaOver("n1", 0, ts(0)-des.Time(des.Second)*100, ts(0))
	if !ok || d != 0 {
		t.Fatalf("clamped delta = %v %v", d, ok)
	}
	if _, ok := c.DeltaOver("ghost", 0, ts(0), ts(10)); ok {
		t.Fatal("unknown source must fail")
	}
	if _, ok := c.DeltaOver("n1", 0, ts(10), ts(10)); ok {
		t.Fatal("empty window must fail")
	}
}

func TestDeltaOverPropertyMonotone(t *testing.T) {
	// For any monotone counter series, DeltaOver is non-negative and
	// additive over adjacent windows.
	f := func(raw []uint8) bool {
		st := NewStore()
		c, _ := st.CreateContainer(Schema{Name: "m", Metrics: []string{"v"}})
		cum := 0.0
		for i, inc := range raw {
			cum += float64(inc)
			_ = c.Append("s", ts(int64(i)), []float64{cum})
		}
		if len(raw) < 3 {
			return true
		}
		lo, mid, hi := ts(0), ts(int64(len(raw)/2)), ts(int64(len(raw)))
		a, okA := c.DeltaOver("s", 0, lo, mid)
		b, okB := c.DeltaOver("s", 0, mid, hi)
		tot, okT := c.DeltaOver("s", 0, lo, hi)
		return okA && okB && okT && a >= 0 && b >= 0 && math.Abs(a+b-tot) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrim(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 100; i++ {
		_ = c.Append("n1", ts(i), []float64{float64(i), 0})
	}
	removed := c.Trim(ts(60))
	if removed != 60 {
		t.Fatalf("removed %d, want 60", removed)
	}
	if c.Len() != 40 {
		t.Fatalf("len = %d, want 40", c.Len())
	}
	if got := c.RangeBySource("n1", ts(0), ts(100)); len(got) != 40 || got[0].At != ts(60) {
		t.Fatalf("post-trim range starts at %v with %d records", got[0].At, len(got))
	}
	if c.Trim(ts(0)) != 0 {
		t.Fatal("trimming before all data must remove nothing")
	}
	// Appending continues to work after trim.
	if err := c.Append("n1", ts(100), []float64{100, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	st := NewStore()
	a, _ := st.CreateContainer(Schema{Name: "alpha", Metrics: []string{"x", "y"}})
	b, _ := st.CreateContainer(Schema{Name: "beta", Metrics: []string{"z"}})
	for i := int64(0); i < 50; i++ {
		_ = a.Append("n1", ts(i), []float64{float64(i), float64(2 * i)})
		_ = a.Append("n2", ts(i), []float64{float64(3 * i), 0})
		_ = b.Append("n1", ts(i*2), []float64{float64(i * i)})
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore()
	if err := st2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := st2.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names: %v", got)
	}
	a2, _ := st2.Container("alpha")
	if a2.Len() != a.Len() {
		t.Fatalf("alpha len: %d vs %d", a2.Len(), a.Len())
	}
	r1, _ := a.LastBefore("n2", ts(100))
	r2, _ := a2.LastBefore("n2", ts(100))
	if r1.At != r2.At || r1.Value(0) != r2.Value(0) {
		t.Fatalf("records differ: %+v vs %+v", r1, r2)
	}
	// ReadFrom into a non-empty store must fail.
	if err := st2.Load(&buf); err == nil {
		t.Fatal("Load into a populated store must fail")
	}
	// Garbage input must fail cleanly.
	if err := NewStore().Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestRecordsSurviveAppendAndTrim(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 10; i++ {
		_ = c.Append("n1", ts(i), []float64{float64(i), float64(-i)})
	}
	recs := c.RangeBySource("n1", ts(0), ts(10))
	last, _ := c.LastBefore("n1", ts(9))
	first, _ := c.firstAfter("n1", ts(0))
	// Trim everything those records cover, then append far past the
	// backing arrays' capacity so they are reallocated.
	c.Trim(ts(10))
	for i := int64(10); i < 2000; i++ {
		_ = c.Append("n1", ts(i), []float64{1e6, 1e6})
		c.Trim(ts(i - 5))
	}
	for i, r := range recs {
		if r.At != ts(int64(i)) || r.Value(0) != float64(i) || r.Value(1) != float64(-i) {
			t.Fatalf("record %d changed after Append/Trim: %+v", i, r)
		}
	}
	if last.At != ts(9) || last.Value(0) != 9 || last.Value(1) != -9 {
		t.Fatalf("LastBefore record changed: %+v", last)
	}
	if first.At != ts(0) || first.Value(0) != 0 || first.Value(1) != 0 {
		t.Fatalf("FirstAfter record changed: %+v", first)
	}
}

func TestAppendToRecordValuesDoesNotAlias(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	_ = c.Append("n1", ts(0), []float64{1, 2})
	_ = c.Append("n1", ts(1), []float64{3, 4})
	recs := c.RangeBySource("n1", ts(0), ts(2))
	_ = append(recs[0].Values, 99, 99)
	if got := c.RangeBySource("n1", ts(1), ts(2))[0].Values; got[0] != 3 || got[1] != 4 {
		t.Fatalf("append to record 0 overwrote record 1: %v", got)
	}
	// Growing the newest row must not share the slots the next Append
	// fills, in either direction.
	grown := append(recs[1].Values, 42)
	_ = c.Append("n1", ts(2), []float64{5, 6})
	if grown[2] != 42 {
		t.Fatalf("Append overwrote a caller's grown row: %v", grown)
	}
	if got, _ := c.LastBefore("n1", ts(2)); got.Values[0] != 5 || got.Values[1] != 6 {
		t.Fatalf("newest record: %v", got.Values)
	}
}

// trimmedStore returns a two-container store whose sources have been
// trimmed, one of them to empty.
func trimmedStore() *Store {
	st := NewStore()
	a, _ := st.CreateContainer(Schema{Name: "alpha", Metrics: []string{"x", "y"}})
	b, _ := st.CreateContainer(Schema{Name: "beta", Metrics: []string{"z"}})
	for i := int64(0); i < 40; i++ {
		_ = a.Append("n1", ts(i), []float64{float64(i) * 1.5, float64(-i)})
		if i < 20 {
			_ = a.Append("n2", ts(i), []float64{float64(3 * i), 0.25})
		}
		_ = b.Append("n3", ts(i*2), []float64{float64(i * i)})
	}
	a.Trim(ts(25))
	b.Trim(ts(31))
	return st
}

func TestPersistRoundTripAfterTrim(t *testing.T) {
	st := trimmedStore()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	st2 := NewStore()
	if err := st2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range st.Names() {
		c, _ := st.Container(name)
		c2, _ := st2.Container(name)
		if c2 == nil || c2.Len() != c.Len() {
			t.Fatalf("%s: loaded %v records, saved %d", name, c2, c.Len())
		}
		for _, src := range c.Sources() {
			want := c.RangeBySource(src, ts(0), des.MaxTime)
			got := c2.RangeBySource(src, ts(0), des.MaxTime)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d records, want %d", name, src, len(got), len(want))
			}
			for i := range want {
				if got[i].At != want[i].At || !equalBits(got[i].Values, want[i].Values) {
					t.Fatalf("%s/%s record %d: %+v, want %+v", name, src, i, got[i], want[i])
				}
			}
		}
	}
	var again bytes.Buffer
	if err := st2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Fatal("Save → Load → Save is not byte-identical")
	}
}

// The wire format predates the columnar layout: a dump written with one
// heap row per record must load, and saving the same store must still
// produce it byte for byte.
func TestPersistWireFormatStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/trimmed-store.gob")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trimmedStore().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("Save output differs from the recorded dump")
	}
	st := NewStore()
	if err := st.Load(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	a, _ := st.Container("alpha")
	if r, ok := a.LastBefore("n1", ts(100)); !ok || r.At != ts(39) || r.Value(0) != 58.5 || r.Value(1) != -39 {
		t.Fatalf("loaded alpha/n1 newest: %+v %v", r, ok)
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// chunkedSeries returns a container with one source "a" of rows i = 0 …
// rows-1 at i s, with values {i, -i/2}, appended through its handle.
func chunkedSeries(t *testing.T, rows int) (*Container, *Series) {
	t.Helper()
	c, _ := NewStore().CreateContainer(testSchema())
	s := c.Series("a")
	for i := 0; i < rows; i++ {
		if err := s.Append(ts(int64(i)), []float64{float64(i), float64(-i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	return c, s
}

// checkRows asserts that the series holds exactly rows first … last-1 of
// chunkedSeries, through every query, including interpolating windows that
// cross chunk boundaries.
func checkRows(t *testing.T, c *Container, s *Series, first, last int) {
	t.Helper()
	n := last - first
	if s.n != n || c.Len() != n {
		t.Fatalf("Len: series %d, container %d, want %d", s.n, c.Len(), n)
	}
	recs := c.RangeBySource("a", 0, des.MaxTime)
	if len(recs) != n {
		t.Fatalf("RangeBySource: %d records, want %d", len(recs), n)
	}
	for k, r := range recs {
		i := first + k
		if r.At != ts(int64(i)) || r.Value(0) != float64(i) || r.Value(1) != float64(-i)/2 {
			t.Fatalf("record %d: %+v, want row %d", k, r, i)
		}
	}
	if n == 0 {
		if _, ok := c.firstAfter("a", 0); ok {
			t.Fatal("FirstAfter on an emptied series must fail")
		}
		if _, ok := s.DeltaOver(0, 0, des.MaxTime); ok {
			t.Fatal("DeltaOver on an emptied series must fail")
		}
		return
	}
	for _, b := range []int{chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows - 1, 2 * chunkRows, 3 * chunkRows} {
		want := min(max(b, first), last-1)
		if r, ok := c.firstAfter("a", ts(int64(b))); b < last && (!ok || r.At != ts(int64(want))) {
			t.Fatalf("FirstAfter(%d s) = %+v %v, want row %d", b, r, ok, want)
		}
		if r, ok := c.LastBefore("a", ts(int64(b))); b >= first && (!ok || r.At != ts(int64(want))) {
			t.Fatalf("LastBefore(%d s) = %+v %v, want row %d", b, r, ok, want)
		}
		// Half a second either side of the boundary: both ends
		// interpolate, the window spans two chunks.
		lo, hi := ts(int64(b)).Add(-des.Second/2), ts(int64(b)).Add(des.Second/2)
		if b-1 < first || b+1 >= last {
			continue
		}
		for col, slope := range []float64{1, -0.5} {
			d, ok := s.DeltaOver(col, lo, hi)
			cd, cok := c.DeltaOver("a", col, lo, hi)
			if !ok || d != slope || !cok || math.Float64bits(cd) != math.Float64bits(d) {
				t.Fatalf("DeltaOver col %d around %d s: handle %v %v, container %v %v, want %v", col, b, d, ok, cd, cok, slope)
			}
		}
	}
}

func TestTrimAcrossChunkBoundaries(t *testing.T) {
	const rows = 3*chunkRows + chunkRows/2
	c, s := chunkedSeries(t, rows)
	checkRows(t, c, s, 0, rows)
	early := c.RangeBySource("a", 0, ts(2*chunkRows+1))
	chunks := len(s.chunks)
	for _, cut := range []int{chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows - 1, 2 * chunkRows, 2*chunkRows + 1} {
		c.Trim(ts(int64(cut)))
		checkRows(t, c, s, cut, rows)
		// A chunk goes once its last row expires, not before.
		if want := chunks - cut/chunkRows; len(s.chunks) != want {
			t.Fatalf("after Trim(%d s): %d chunks, want %d", cut, len(s.chunks), want)
		}
	}
	// Records handed out before the trims still read their rows.
	for i, r := range early {
		if r.At != ts(int64(i)) || r.Value(0) != float64(i) || r.Value(1) != float64(-i)/2 {
			t.Fatalf("record %d changed after trims: %+v", i, r)
		}
	}
	// Append past the trims, across the next boundary.
	for i := rows; i < 4*chunkRows+2; i++ {
		if err := s.Append(ts(int64(i)), []float64{float64(i), float64(-i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	checkRows(t, c, s, 2*chunkRows+1, 4*chunkRows+2)
}

func TestTrimEmptiesAndRefillsSeries(t *testing.T) {
	for _, rows := range []int{chunkRows / 2, chunkRows, 2*chunkRows + 3} {
		c, s := chunkedSeries(t, rows)
		if got := c.Trim(ts(int64(rows))); got != rows {
			t.Fatalf("%d rows: Trim removed %d", rows, got)
		}
		checkRows(t, c, s, rows, rows)
		// An emptied series takes any time again, earlier ones too, and
		// refills across chunk boundaries.
		for i := 0; i < 2*chunkRows+1; i++ {
			if err := s.Append(ts(int64(i)), []float64{float64(i), float64(-i) / 2}); err != nil {
				t.Fatalf("%d rows: refill row %d: %v", rows, i, err)
			}
		}
		checkRows(t, c, s, 0, 2*chunkRows+1)
		if got := c.Sources(); len(got) != 1 || got[0] != "a" {
			t.Fatalf("Sources after refill: %v", got)
		}
	}
}

func TestSeriesHandleListedAtFirstAppend(t *testing.T) {
	c, _ := NewStore().CreateContainer(testSchema())
	b, a := c.Series("b"), c.Series("a")
	if c.Series("b") != b {
		t.Fatal("Series must return the same handle for a source")
	}
	if got := c.Sources(); len(got) != 0 {
		t.Fatalf("resolving handles listed sources: %v", got)
	}
	if got := c.RangeBySource("b", 0, des.MaxTime); got != nil {
		t.Fatal("a source with no append must read as unknown")
	}
	_ = a.Append(ts(1), []float64{1, 2})
	_ = c.Append("c", ts(1), []float64{1, 2})
	_ = b.Append(ts(1), []float64{1, 2})
	if got := c.Sources(); strings.Join(got, ",") != "a,c,b" {
		t.Fatalf("Sources: %v, want first-appended order a,c,b", got)
	}
	if err := b.Append(ts(2), []float64{1}); err == nil {
		t.Fatal("wrong width through a handle must error")
	}
	if err := b.Append(ts(0), []float64{1, 2}); err == nil {
		t.Fatal("time going backwards through a handle must error")
	}
}
