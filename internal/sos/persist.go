package sos

import (
	"encoding/gob"
	"fmt"
	"io"

	"wasched/internal/des"
)

// The wire format mirrors SOS's on-disk container dumps: a store is a
// sequence of containers, each with its schema and per-source column data.
// Times and values are stored as one slice per source and one row per
// record on the wire; Save builds them from the chunked in-memory layout,
// so old dumps still load.

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
			times := make([]des.Time, s.n)
			rows := make([][]float64, s.n)
			for k := range rows {
				times[k], rows[k] = s.time(k), s.row(k)
			}
			wc.Sources = append(wc.Sources, wireSeries{
				Source: s.source,
				Times:  times,
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
			ser := c.Series(s.Source)
			c.list(ser) // a source trimmed to empty still round-trips
			for i := range s.Times {
				if err := ser.Append(s.Times[i], s.Values[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
