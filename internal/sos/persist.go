package sos

import (
	"encoding/gob"
	"fmt"
	"io"

	"wasched/internal/des"
)

// The wire format mirrors SOS's on-disk container dumps: a store is a
// sequence of containers, each with its schema and per-source column data.
// Values are stored as one row per record on the wire; Save builds those
// rows from the flat in-memory layout, so old dumps still load.

type wireStore struct {
	Containers []wireContainer
}

type wireContainer struct {
	Schema  Schema
	Sources []wireSeries
}

type wireSeries struct {
	Source string
	Times  []des.Time
	Values [][]float64
}

// Save serialises the whole store (all containers, all records) with
// encoding/gob. The format round-trips through Load.
func (st *Store) Save(w io.Writer) error {
	ws := wireStore{}
	for _, name := range st.names {
		c := st.containers[name]
		wc := wireContainer{Schema: c.schema}
		for _, s := range c.order {
			rows := make([][]float64, len(s.times))
			for k := range rows {
				rows[k] = s.row(k, c.width)
			}
			wc.Sources = append(wc.Sources, wireSeries{
				Source: s.source,
				Times:  s.times,
				Values: rows,
			})
		}
		ws.Containers = append(ws.Containers, wc)
	}
	if err := gob.NewEncoder(w).Encode(ws); err != nil {
		return fmt.Errorf("sos: encode: %w", err)
	}
	return nil
}

// Load deserialises a store written by Save into an empty store.
// Loading into a non-empty store fails (merging is not defined).
func (st *Store) Load(r io.Reader) error {
	if len(st.names) != 0 {
		return fmt.Errorf("sos: Load needs an empty store, have %d containers", len(st.names))
	}
	var ws wireStore
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return fmt.Errorf("sos: decode: %w", err)
	}
	for _, wc := range ws.Containers {
		c, err := st.CreateContainer(wc.Schema)
		if err != nil {
			return err
		}
		for _, s := range wc.Sources {
			if len(s.Times) != len(s.Values) {
				return fmt.Errorf("sos: container %q source %q: %d times, %d rows",
					wc.Schema.Name, s.Source, len(s.Times), len(s.Values))
			}
			c.seriesOf(s.Source) // a source trimmed to empty still round-trips
			for i := range s.Times {
				if err := c.Append(s.Source, s.Times[i], s.Values[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ExportCSV writes one container as CSV: source,time_s,<metrics...>, in
// source order then time order.
func (c *Container) ExportCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "source,time_s"); err != nil {
		return err
	}
	for _, m := range c.schema.Metrics {
		if _, err := fmt.Fprintf(w, ",%s", m); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, s := range c.order {
		for i := range s.times {
			if _, err := fmt.Fprintf(w, "%s,%.6f", s.source, s.times[i].Seconds()); err != nil {
				return err
			}
			for _, v := range s.row(i, c.width) {
				if _, err := fmt.Fprintf(w, ",%g", v); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
