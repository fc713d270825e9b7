// Package ldms is a stand-in for the Lightweight Distributed Metric
// Service: per-node samplers read the Lustre client counters of the file
// system model on a fixed period, and an aggregator flushes the samples
// into a SOS container on its own period.
//
// Modelling the pipeline explicitly (instead of letting the analytics read
// the simulator directly) reproduces the latencies and quantisation a real
// monitoring stack imposes: the scheduler sees counters that are up to
// SampleInterval+AggregateInterval old, sampled on per-node phases.
package ldms

import (
	"fmt"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sos"
)

// ContainerName is the SOS container the daemon writes to.
const ContainerName = "lustre_client"

// Columns of the lustre_client schema.
const (
	ColWriteBytes = iota
	ColReadBytes
	ColWriteOps
	ColReadOps
)

// Schema returns the SOS schema for Lustre client counters.
func Schema() sos.Schema {
	return sos.Schema{
		Name:    ContainerName,
		Metrics: []string{"write_bytes", "read_bytes", "write_ops", "read_ops"},
	}
}

// Config holds the monitoring cadence.
type Config struct {
	// SampleInterval is each node sampler's period (LDMS default: 1 s).
	SampleInterval des.Duration
	// AggregateInterval is the period at which buffered samples become
	// visible in the store.
	AggregateInterval des.Duration
	// PhaseJitter offsets each node's sampler start uniformly within the
	// sample interval, as unsynchronised daemons do in practice.
	PhaseJitter bool
	// Retention bounds the store: records older than Retention are
	// trimmed after each aggregation flush. Zero keeps everything. Must
	// comfortably exceed the analytics ThroughputWindow and the longest
	// job runtime, since job usage is computed from these records.
	Retention des.Duration
}

// DefaultConfig returns 1 s sampling, 1 s aggregation, jittered phases.
func DefaultConfig() Config {
	return Config{
		SampleInterval:    des.Second,
		AggregateInterval: des.Second,
		PhaseJitter:       true,
		Retention:         2 * des.Hour,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SampleInterval <= 0 {
		return fmt.Errorf("ldms: SampleInterval must be positive, got %v", c.SampleInterval)
	}
	if c.AggregateInterval <= 0 {
		return fmt.Errorf("ldms: AggregateInterval must be positive, got %v", c.AggregateInterval)
	}
	if c.Retention < 0 {
		return fmt.Errorf("ldms: Retention must be non-negative, got %v", c.Retention)
	}
	return nil
}

type bufferedRecord struct {
	series *sos.Series
	at     des.Time
	values [4]float64
}

// Daemon is the running monitoring pipeline.
type Daemon struct {
	eng       *des.Engine
	fs        *pfs.FileSystem
	container *sos.Container
	cfg       Config
	pending   []bufferedRecord
	stops     []func()
	samples   uint64
	flushes   uint64
}

// Start launches one sampler per node plus the aggregator, writing into
// store. The seed derives the sampler phase jitter.
func Start(eng *des.Engine, fs *pfs.FileSystem, store *sos.Store, nodes []string, cfg Config, seed uint64) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ldms: no nodes to monitor")
	}
	container, err := store.CreateContainer(Schema())
	if err != nil {
		return nil, err
	}
	d := &Daemon{eng: eng, fs: fs, container: container, cfg: cfg}
	rng := des.NewRNG(seed, "ldms/jitter")
	for i, client := range fs.Clients(nodes) {
		node := nodes[i]
		// Resolved once: the flush appends through the handle, with no
		// lookup by name per record.
		series := container.Series(client.Name())
		start := func() {
			stop := eng.Ticker(cfg.SampleInterval, "ldms/sample/"+node, func(now des.Time) {
				d.sample(series, client, now)
			})
			d.stops = append(d.stops, stop)
		}
		if cfg.PhaseJitter {
			phase := rng.Jitter(cfg.SampleInterval)
			eng.After(phase, "ldms/start/"+node, start)
		} else {
			start()
		}
	}
	stop := eng.Ticker(cfg.AggregateInterval, "ldms/aggregate", func(now des.Time) {
		d.flush()
		if cfg.Retention > 0 && now > des.Time(cfg.Retention) {
			d.container.Trim(now.Add(-cfg.Retention))
		}
	})
	d.stops = append(d.stops, stop)
	return d, nil
}

func (d *Daemon) sample(series *sos.Series, client *pfs.Client, now des.Time) {
	c := client.Counters()
	d.samples++
	d.pending = append(d.pending, bufferedRecord{
		series: series,
		at:     now,
		values: [4]float64{c.WriteBytes, c.ReadBytes, float64(c.WriteOps), float64(c.ReadOps)},
	})
}

// flush moves the buffered samples into the store. It runs once per
// aggregation period, so it must not allocate per record.
//
//waschedlint:hotpath
func (d *Daemon) flush() {
	for i := range d.pending {
		r := &d.pending[i]
		if err := r.series.Append(r.at, r.values[:]); err != nil {
			// Monotonicity violations cannot happen with ticker-driven
			// samplers; any error here is a programming bug.
			panic(fmt.Sprintf("ldms: flush: %v", err))
		}
	}
	d.pending = d.pending[:0]
	d.flushes++
}

// Samples returns the number of samples taken (diagnostics).
func (d *Daemon) Samples() uint64 { return d.samples }

// Flushes returns the number of aggregator flushes (diagnostics).
func (d *Daemon) Flushes() uint64 { return d.flushes }

// Container returns the SOS container the daemon writes to.
func (d *Daemon) Container() *sos.Container { return d.container }

// Stop halts all samplers and the aggregator, flushing pending samples.
func (d *Daemon) Stop() {
	for _, s := range d.stops {
		s()
	}
	d.stops = nil
	d.flush()
}
