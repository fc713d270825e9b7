package sos

import (
	"math"
	"slices"
	"testing"

	"wasched/internal/des"
)

// refStore is the naive reference FuzzContainer checks the container
// against: every retained record in append order, scanned linearly, and a
// trim that filters.
type refStore struct {
	recs    []Record
	sources []string
}

func (r *refStore) bySource(src string) []Record {
	var out []Record
	for _, rec := range r.recs {
		if rec.Source == src {
			out = append(out, rec)
		}
	}
	return out
}

func (r *refStore) append(src string, at des.Time, v []float64) bool {
	own := r.bySource(src)
	if len(own) > 0 && at < own[len(own)-1].At {
		return false
	}
	if !slices.Contains(r.sources, src) {
		r.sources = append(r.sources, src)
	}
	r.recs = append(r.recs, Record{At: at, Source: src, Values: slices.Clone(v)})
	return true
}

func (r *refStore) trim(before des.Time) int {
	kept := r.recs[:0:0]
	for _, rec := range r.recs {
		if rec.At >= before {
			kept = append(kept, rec)
		}
	}
	removed := len(r.recs) - len(kept)
	r.recs = kept
	return removed
}

func (r *refStore) rangeOf(src string, lo, hi des.Time) []Record {
	var out []Record
	for _, rec := range r.bySource(src) {
		if lo <= rec.At && rec.At < hi {
			out = append(out, rec)
		}
	}
	return out
}

func (r *refStore) lastBefore(src string, at des.Time) (Record, bool) {
	var out Record
	ok := false
	for _, rec := range r.bySource(src) {
		if rec.At <= at {
			out, ok = rec, true
		}
	}
	return out, ok
}

func (r *refStore) firstAfter(src string, at des.Time) (Record, bool) {
	for _, rec := range r.bySource(src) {
		if rec.At >= at {
			return rec, true
		}
	}
	return Record{}, false
}

func (r *refStore) interp(src string, col int, t des.Time) (float64, bool) {
	own := r.bySource(src)
	if len(own) == 0 {
		return 0, false
	}
	for i, rec := range own {
		if rec.At < t {
			continue
		}
		if i == 0 {
			return rec.Values[col], true
		}
		prev := own[i-1]
		f := float64(t-prev.At) / float64(rec.At-prev.At)
		return prev.Values[col] + f*(rec.Values[col]-prev.Values[col]), true
	}
	return own[len(own)-1].Values[col], true
}

func (r *refStore) deltaOver(src string, col int, lo, hi des.Time) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	a, okA := r.interp(src, col, lo)
	b, okB := r.interp(src, col, hi)
	if !okA || !okB {
		return 0, false
	}
	return b - a, true
}

// FuzzContainer decodes the input into Append/Trim operations over one to
// three sources of a 2-column schema and, after every operation, checks
// Len, Sources, RangeBySource, LastBefore, FirstAfter and DeltaOver
// against refStore, with floats compared bit for bit.
//
// Input layout: byte 0 picks the source count; then each operation is
// three bytes (op, p1, p2). The low bit of op selects Append or Trim. An
// Append goes to source p1%n at the clock plus (op>>1)%8−2 s, so some go
// back in time and must be rejected, with values derived from p1 and p2;
// the clock then advances 1 s. A Trim cuts at the clock minus (op>>1)%32 s.
// The probe window is lo = clock+1 s−p1/4 s, hi = lo+(p2−32)/8 s (empty or
// inverted when p2 <= 32).
func FuzzContainer(f *testing.F) {
	f.Add([]byte{0, 0x00, 4, 8, 0x00, 9, 40, 0x01, 2, 50})
	f.Add([]byte{2, 0x04, 0, 1, 0x06, 1, 2, 0x08, 2, 3, 0x00, 0, 80, 0x03, 12, 90, 0x02, 1, 33})
	f.Add([]byte{1, 0x0a, 0, 7, 0x00, 1, 200, 0x02, 0, 0, 0x00, 0, 255, 0x41, 30, 64, 0x04, 1, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		names := []string{"a", "b", "c"}[:1+int(data[0])%3]
		data = data[1:]
		st := NewStore()
		c, err := st.CreateContainer(Schema{Name: "m", Metrics: []string{"cum", "gauge"}})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refStore{}
		clock := des.Time(0)
		cum := 0.0
		for len(data) >= 3 {
			op, p1, p2 := data[0], data[1], data[2]
			data = data[3:]
			if op&1 == 0 {
				src := names[int(p1)%len(names)]
				at := clock.Add(des.Duration(int(op>>1)%8-2) * des.Second)
				cum += float64(p2)
				v := []float64{cum, float64(int8(p1)) / 3}
				err := c.Append(src, at, v)
				if ok := ref.append(src, at, v); ok != (err == nil) {
					t.Fatalf("Append(%s, %v): err %v, reference accepted %v", src, at, err, ok)
				}
				clock = clock.Add(des.Second)
			} else {
				before := clock.Add(-des.Duration(int(op>>1)%32) * des.Second)
				if got, want := c.Trim(before), ref.trim(before); got != want {
					t.Fatalf("Trim(%v) removed %d, reference %d", before, got, want)
				}
			}
			lo := clock.Add(des.Second - des.Duration(p1)*des.Second/4)
			hi := lo.Add(des.Duration(int(p2)-32) * des.Second / 8)
			checkAgainstRef(t, c, ref, names, lo, hi)
		}
	})
}

func checkAgainstRef(t *testing.T, c *Container, ref *refStore, names []string, lo, hi des.Time) {
	t.Helper()
	if c.Len() != len(ref.recs) {
		t.Fatalf("Len %d, reference %d", c.Len(), len(ref.recs))
	}
	if got := c.Sources(); !slices.Equal(got, ref.sources) {
		t.Fatalf("Sources %v, reference %v", got, ref.sources)
	}
	for _, src := range names {
		got, want := c.RangeBySource(src, lo, hi), ref.rangeOf(src, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("RangeBySource(%s, %v, %v): %d records, reference %d", src, lo, hi, len(got), len(want))
		}
		for i := range got {
			sameRecord(t, "RangeBySource", got[i], true, want[i], true)
		}
		for _, at := range []des.Time{lo, hi} {
			g, gok := c.LastBefore(src, at)
			w, wok := ref.lastBefore(src, at)
			sameRecord(t, "LastBefore", g, gok, w, wok)
			g, gok = c.FirstAfter(src, at)
			w, wok = ref.firstAfter(src, at)
			sameRecord(t, "FirstAfter", g, gok, w, wok)
		}
		for col := 0; col < 2; col++ {
			g, gok := c.DeltaOver(src, col, lo, hi)
			w, wok := ref.deltaOver(src, col, lo, hi)
			if gok != wok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("DeltaOver(%s, %d, %v, %v) = %v %v, reference %v %v", src, col, lo, hi, g, gok, w, wok)
			}
		}
	}
}

func sameRecord(t *testing.T, what string, got Record, gotOK bool, want Record, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("%s: found %v, reference %v", what, gotOK, wantOK)
	}
	if gotOK && (got.At != want.At || got.Source != want.Source || !equalBits(got.Values, want.Values)) {
		t.Fatalf("%s: %+v, reference %+v", what, got, want)
	}
}
