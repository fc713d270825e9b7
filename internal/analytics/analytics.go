// Package analytics implements the paper's "analytical services" (Fig. 2):
// it turns monitoring records into the two inputs the I/O-aware and
// workload-adaptive schedulers need —
//
//  1. per-job resource requirement estimates r_j (average Lustre
//     throughput) and d_j (runtime), computed as exponentially decaying
//     weighted averages of the historical usage of similar jobs; and
//  2. the measured current total Lustre throughput R_now over a trailing
//     window, used to guard against under-estimation (paper Alg. 2 line 7).
//
// "Similar jobs" are identified by an opaque fingerprint string supplied
// by the submitter (the paper notes identification poses no significant
// challenge for its workloads; richer predictors can be slotted in here).
package analytics

import (
	"fmt"
	"sort"

	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/sos"
)

// Config tunes the estimator.
type Config struct {
	// ThroughputWindow is the trailing window over which R_now is
	// computed from sampled counters.
	ThroughputWindow des.Duration
	// Alpha is the weight of the newest observation in the exponentially
	// decaying average (0 < Alpha <= 1).
	Alpha float64
	// NoiseFloor is the per-node measurement noise floor in bytes/s: a
	// job whose measured average rate falls below NoiseFloor × nodes is
	// recorded as zero-throughput. Counter interpolation at job
	// boundaries otherwise attributes a few stray bytes of a neighbouring
	// job to an idle one, and the schedulers' zero-job classification
	// (paper §VII-A) needs genuine zeros. Zero disables the floor.
	NoiseFloor float64
}

// DefaultConfig returns a 30 s measurement window, alpha = 0.5, and a
// 1 MiB/s per-node noise floor.
func DefaultConfig() Config {
	return Config{
		ThroughputWindow: 30 * des.Second,
		Alpha:            0.5,
		NoiseFloor:       1 << 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ThroughputWindow <= 0 {
		return fmt.Errorf("analytics: ThroughputWindow must be positive, got %v", c.ThroughputWindow)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("analytics: Alpha must be in (0,1], got %g", c.Alpha)
	}
	if c.NoiseFloor < 0 {
		return fmt.Errorf("analytics: NoiseFloor must be non-negative, got %g", c.NoiseFloor)
	}
	return nil
}

// Estimate is the predicted resource requirement of one job class.
type Estimate struct {
	// Rate is the job's estimated average Lustre throughput r_j, bytes/s.
	Rate float64
	// Runtime is the estimated runtime d_j.
	Runtime des.Duration
	// Observations counts completed jobs folded into the estimate
	// (0 for purely pre-trained entries).
	Observations int
}

// Observation is one completed job's measured resource usage.
type Observation struct {
	At      des.Time // completion time
	Rate    float64  // measured average throughput, bytes/s
	Runtime des.Duration
}

// historyCap bounds the per-class observation history kept for quantile
// queries; old observations fall off the front.
const historyCap = 64

// Service answers the scheduler's requests for estimates and measurements.
type Service struct {
	eng       *des.Engine
	container *sos.Container
	// series holds one handle per compute node, in sorted node order, so
	// R_now reads the store without a lookup by name.
	series    []*sos.Series
	cfg       Config
	estimates map[string]*Estimate
	history   map[string][]Observation
	completed uint64
	// rev counts the changes to the estimates and their history.
	rev uint64
}

// New creates a service reading from the LDMS container in store. nodes is
// the full compute-node list over which R_now is summed.
func New(eng *des.Engine, store *sos.Store, nodes []string, cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("analytics: no nodes")
	}
	container, err := store.CreateContainer(ldms.Schema())
	if err != nil {
		return nil, err
	}
	ns := make([]string, len(nodes))
	copy(ns, nodes)
	sort.Strings(ns)
	series := make([]*sos.Series, len(ns))
	for i, n := range ns {
		series[i] = container.Series(n)
	}
	return &Service{
		eng:       eng,
		container: container,
		series:    series,
		cfg:       cfg,
		estimates: make(map[string]*Estimate),
		history:   make(map[string][]Observation),
	}, nil
}

// Estimate returns the current prediction for a fingerprint. ok is false
// when the class has never been seen nor pre-trained; the paper's
// schedulers then assume zero throughput (Fig. 3e, "untrained").
func (s *Service) Estimate(fingerprint string) (Estimate, bool) {
	e, ok := s.estimates[fingerprint]
	if !ok {
		return Estimate{}, false
	}
	return *e, true
}

// Fingerprints returns all known job classes in sorted order.
func (s *Service) Fingerprints() []string {
	out := make([]string, 0, len(s.estimates))
	for fp := range s.estimates {
		out = append(out, fp)
	}
	sort.Strings(out)
	return out
}

// CompletedJobs returns how many completions have been folded in.
func (s *Service) CompletedJobs() uint64 { return s.completed }

// Revision returns a counter that moves whenever Estimate or QuantileRate
// may answer differently for some class: on every Pretrain and every
// completion folded in. Callers that cache estimates re-read them only
// when it moved.
func (s *Service) Revision() uint64 { return s.rev }

// Pretrain seeds the estimator for a job class, corresponding to the
// paper's "pre-training" by running representative jobs in isolation.
func (s *Service) Pretrain(fingerprint string, rate float64, runtime des.Duration) {
	s.estimates[fingerprint] = &Estimate{Rate: rate, Runtime: runtime}
	s.rev++
}

// JobCompleted folds a finished job into its class estimate: the job's
// measured average throughput is the byte growth of its nodes' client
// counters over its execution divided by its runtime (paper §III). The
// scheduler notifies the service on every completion.
func (s *Service) JobCompleted(fingerprint string, nodes []string, start, end des.Time) {
	dur := end.Sub(start).Seconds()
	if dur <= 0 || len(nodes) == 0 {
		return
	}
	bytes := 0.0
	sampled := false
	for _, n := range nodes {
		w, okW := s.container.DeltaOver(n, ldms.ColWriteBytes, start, end)
		r, okR := s.container.DeltaOver(n, ldms.ColReadBytes, start, end)
		if okW {
			bytes += w
			sampled = true
		}
		if okR {
			bytes += r
			sampled = true
		}
	}
	if !sampled {
		// No monitoring data (job shorter than a sampling period on a
		// never-sampled node): skip rather than feed a bogus zero.
		return
	}
	s.completed++
	s.rev++
	measuredRate := bytes / dur
	if measuredRate < s.cfg.NoiseFloor*float64(len(nodes)) {
		measuredRate = 0
	}
	measuredRuntime := end.Sub(start)
	h := append(s.history[fingerprint], Observation{
		At: s.eng.Now(), Rate: measuredRate, Runtime: measuredRuntime,
	})
	if len(h) > historyCap {
		h = h[len(h)-historyCap:]
	}
	s.history[fingerprint] = h
	e, ok := s.estimates[fingerprint]
	if !ok {
		s.estimates[fingerprint] = &Estimate{Rate: measuredRate, Runtime: measuredRuntime, Observations: 1}
		return
	}
	a := s.cfg.Alpha
	e.Rate = a*measuredRate + (1-a)*e.Rate
	e.Runtime = des.Duration(a*float64(measuredRuntime) + (1-a)*float64(e.Runtime))
	e.Observations++
}

// QuantileRate returns the q-th quantile (0..1) of the class's observed
// rates — a conservative alternative to the EWMA point estimate for
// schedulers that prefer to over-provision. ok is false without history.
func (s *Service) QuantileRate(fingerprint string, q float64) (float64, bool) {
	h := s.history[fingerprint]
	if len(h) == 0 || q < 0 || q > 1 {
		return 0, false
	}
	rates := make([]float64, len(h))
	for i, o := range h {
		rates[i] = o.Rate
	}
	sort.Float64s(rates)
	pos := q * float64(len(rates)-1)
	lo := int(pos)
	if lo == len(rates)-1 {
		return rates[lo], true
	}
	f := pos - float64(lo)
	return rates[lo]*(1-f) + rates[lo+1]*f, true
}

// CurrentThroughput returns R_now: the cluster-wide Lustre throughput in
// bytes/s measured over the trailing window from sampled counters. Each
// node's write and read counters are interpolated at the same two points,
// so one search per node and window end serves both columns.
func (s *Service) CurrentThroughput() float64 {
	now := s.eng.Now()
	w := s.cfg.ThroughputWindow
	lo := now.Add(-w)
	if lo < 0 {
		lo = 0
	}
	win := now.Sub(lo).Seconds()
	if win <= 0 {
		return 0
	}
	total := 0.0
	for _, sr := range s.series {
		a, ok := sr.At(lo)
		if !ok {
			continue
		}
		b, _ := sr.At(now)
		total += b.Value(ldms.ColWriteBytes) - a.Value(ldms.ColWriteBytes)
		total += b.Value(ldms.ColReadBytes) - a.Value(ldms.ColReadBytes)
	}
	return total / win
}
