package pfs

import (
	"fmt"
	"math"

	"wasched/internal/des"
)

// OpKind distinguishes read and write streams; counters are kept per kind.
type OpKind int

// Stream operation kinds.
const (
	Write OpKind = iota
	Read
)

// String returns "write" or "read".
func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Counters are cumulative per-node Lustre client counters, mirroring what
// an LDMS Lustre client sampler reads from /proc on a real system.
type Counters struct {
	WriteBytes float64
	ReadBytes  float64
	WriteOps   uint64
	ReadOps    uint64
}

// Total returns read plus write bytes.
func (c Counters) Total() float64 { return c.WriteBytes + c.ReadBytes }

// Client is one client node's handle on the file system: its cumulative
// Lustre client counters, its token-bucket rate cap and the rate solver's
// per-node scratch. The file system makes one Client per node name, on
// first use, and returns the same pointer from then on, so streams, the
// token layer and the LDMS samplers hold it instead of looking the node
// up by name on every sync, recompute and sample.
type Client struct {
	fs       *FileSystem
	name     string
	counters Counters
	// rateCap is the client-side cap in bytes/s; it binds only while
	// capped is set.
	rateCap float64
	capped  bool
	// demand is recompute scratch: the summed solver rates of the
	// client's active streams while it is capped.
	demand float64
}

// Name returns the client node's name.
func (c *Client) Name() string { return c.name }

// Counters returns a snapshot of the client's cumulative counters, current
// as of now.
func (c *Client) Counters() Counters {
	c.fs.sync()
	return c.counters
}

// SetRateCap caps the client's streams at bytesPerSec in total, shared in
// proportion to their uncapped rates; a zero cap stalls them until it is
// raised or cleared. Like every cap change it takes effect at the next
// rate solve — a stream boundary, a noise tick or ApplyRateCaps —
// whichever comes first. This is the enforcement hook of the
// internal/tbf token-bucket limiter.
func (c *Client) SetRateCap(bytesPerSec float64) {
	if !c.capped {
		c.capped = true
		c.fs.capped++
	}
	c.rateCap = bytesPerSec
}

// ClearRateCap removes the client's cap, effective at the next rate solve.
func (c *Client) ClearRateCap() {
	if c.capped {
		c.capped = false
		c.fs.capped--
	}
}

// Stream is one client I/O stream transferring a fixed number of bytes to
// or from a single volume. Jobs with T I/O threads open T streams.
type Stream struct {
	fs       *FileSystem
	client   *Client
	kind     OpKind
	volume   int
	total    float64
	done     float64
	rate     float64
	idx      int  // position in fs.streams, -1 when inactive
	started  bool // past the MDS create phase
	finished bool
	cancel   bool
	event    des.Event // next boundary: completion or burst expiry
	complete func()
	boundary func() // the boundary-event callback, built once at open
}

// Node returns the client node the stream belongs to.
func (s *Stream) Node() string { return s.client.name }

// Rate returns the instantaneous transfer rate in bytes/s.
func (s *Stream) Rate() float64 { return s.rate }

// Remaining returns the bytes left to transfer as of the last rate change.
func (s *Stream) Remaining() float64 { return math.Max(0, s.total-s.done) }

// Done reports whether the stream has finished.
func (s *Stream) Done() bool { return s.finished }

// FileSystem is the Lustre model. All methods must be called from the
// simulation goroutine (inside event callbacks or before Run).
type FileSystem struct {
	eng *des.Engine
	cfg Config

	// streams holds the active streams in a deterministic order (append on
	// activate, swap-remove on finish/cancel) so that floating-point
	// accumulation order — and therefore every simulated byte count — is
	// identical across runs with the same seed.
	streams  []*Stream
	clients  map[string]*Client // nil until the first Client call
	total    Counters
	lastSync des.Time

	volLogNoise []float64
	// volFactor caches noiseFactor(volLogNoise[v]) from its first use
	// after each noise step; 0 marks a volume not yet computed.
	volFactor []float64
	globalLog float64
	// globalFactor is noiseFactor(globalLog), set with every step of it:
	// the solver reads it on every stream boundary.
	globalFactor float64
	noiseRNG     *des.RNG
	stopNoise    func()

	mdsFreeAt des.Time

	// Failure injection (see SetGlobalDegradation).
	globalDegrade float64 // 0 means 1 (healthy)

	// capped counts the clients with a rate cap (Client.SetRateCap); the
	// solver skips its client-throttling pass while it is zero.
	capped int

	// Solver scratch, reused across recompute() calls: the solver runs on
	// every stream boundary and noise tick, so per-call slice allocations
	// dominate the replay hot path without this.
	volCountScratch  []int
	srvDemandScratch []float64

	recomputes uint64
}

// New creates a file system on the engine. The seed feeds the model's noise
// process; two file systems with the same seed and event history behave
// identically.
func New(eng *des.Engine, cfg Config, seed uint64) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FileSystem{
		eng:             eng,
		cfg:             cfg,
		volLogNoise:     make([]float64, cfg.Volumes),
		volFactor:       make([]float64, cfg.Volumes),
		noiseRNG:        des.NewRNG(seed, "pfs/noise"),
		lastSync:        eng.Now(),
		volCountScratch: make([]int, cfg.Volumes),
	}
	if cfg.Servers > 0 {
		fs.srvDemandScratch = make([]float64, cfg.Servers)
	}
	// Start the noise processes at their stationary distribution.
	for i := range fs.volLogNoise {
		fs.volLogNoise[i] = cfg.NoiseSigma * fs.noiseRNG.NormFloat64()
	}
	fs.globalLog = cfg.NoiseSigma * fs.noiseRNG.NormFloat64()
	fs.globalFactor = fs.noiseFactor(fs.globalLog)
	fs.stopNoise = eng.Ticker(cfg.NoiseInterval, "pfs/noise", func(des.Time) {
		fs.sync()
		fs.rollNoise()
		fs.recompute()
	})
	return fs, nil
}

// Config returns the file system's configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Close stops the background noise process. The file system remains
// readable but rates freeze; used when tearing down a simulation early.
func (fs *FileSystem) Close() { fs.stopNoise() }

// Volumes returns the number of OST volumes.
func (fs *FileSystem) Volumes() int { return fs.cfg.Volumes }

// RandomVolume picks a volume uniformly at random, as the paper's write
// jobs do ("written to a randomly chosen Lustre storage volume").
func (fs *FileSystem) RandomVolume(rng *des.RNG) int { return rng.IntN(fs.cfg.Volumes) }

// addStream appends s to the active set.
func (fs *FileSystem) addStream(s *Stream) {
	s.idx = len(fs.streams)
	fs.streams = append(fs.streams, s)
}

// removeStream swap-removes s from the active set.
func (fs *FileSystem) removeStream(s *Stream) {
	i := s.idx
	if i < 0 || i >= len(fs.streams) || fs.streams[i] != s {
		return
	}
	last := len(fs.streams) - 1
	fs.streams[i] = fs.streams[last]
	fs.streams[i].idx = i
	fs.streams[last] = nil
	fs.streams = fs.streams[:last]
	s.idx = -1
}

// Recomputes returns how many times the rate solver has run (diagnostics).
func (fs *FileSystem) Recomputes() uint64 { return fs.recomputes }

// rollNoise advances the AR(1) log-noise of every volume and the global
// backend factor by one step, preserving the stationary variance.
func (fs *FileSystem) rollNoise() {
	rho := fs.cfg.NoiseCorr
	innov := fs.cfg.NoiseSigma * math.Sqrt(1-rho*rho)
	for i := range fs.volLogNoise {
		fs.volLogNoise[i] = rho*fs.volLogNoise[i] + innov*fs.noiseRNG.NormFloat64()
		fs.volFactor[i] = 0
	}
	fs.globalLog = rho*fs.globalLog + innov*fs.noiseRNG.NormFloat64()
	fs.globalFactor = fs.noiseFactor(fs.globalLog)
}

// noiseFactor converts a log-noise value into a mean-one multiplier.
func (fs *FileSystem) noiseFactor(logn float64) float64 {
	s := fs.cfg.NoiseSigma
	return math.Exp(logn - s*s/2)
}

// volNoise returns volume v's noise multiplier, computing it at most once
// per noise step and only for a volume something reads: with few streams
// most volumes go unread, which made an eager per-step cache cost more
// than it saved.
func (fs *FileSystem) volNoise(v int) float64 {
	f := fs.volFactor[v]
	if f == 0 {
		f = fs.noiseFactor(fs.volLogNoise[v])
		fs.volFactor[v] = f
	}
	return f
}

// mdsDelay serializes metadata operations through a single-server queue
// with fixed per-op latency, returning the delay before a create completes.
func (fs *FileSystem) mdsDelay() des.Duration {
	now := fs.eng.Now()
	start := now
	if fs.mdsFreeAt > start {
		start = fs.mdsFreeAt
	}
	// A zero or negative MDSOpsPerSec in a hand-written config would turn
	// the op time into ±Inf; treat it as "no metadata throughput cap".
	opTime := des.Duration(0)
	if fs.cfg.MDSOpsPerSec > 0 {
		opTime = des.FromSeconds(1 / fs.cfg.MDSOpsPerSec)
	}
	done := start.Add(opTime)
	fs.mdsFreeAt = done
	return done.Sub(now) + fs.cfg.MDSLatency
}

// StartStream opens a stream of the given kind transferring bytes to or
// from the given volume on behalf of node. onComplete fires (once) when the
// last byte transfers; it may be nil. The stream first spends the metadata
// create latency before data starts to flow.
func (fs *FileSystem) StartStream(node string, kind OpKind, volume int, bytes float64, onComplete func()) *Stream {
	if volume < 0 || volume >= fs.cfg.Volumes {
		panic(fmt.Sprintf("pfs: volume %d out of range [0,%d)", volume, fs.cfg.Volumes))
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("pfs: stream size must be positive, got %g", bytes))
	}
	c := fs.Client(node)
	s := &Stream{fs: fs, client: c, kind: kind, volume: volume, total: bytes, complete: onComplete}
	// The boundary callback is built once here: every recompute reschedules
	// every active stream's boundary, and a fresh closure per reschedule
	// was the recompute loop's only allocation.
	s.boundary = func() {
		s.event = des.Event{}
		fs.sync()
		if s.total-s.done <= 1 { // within a byte: finished
			fs.finish(s)
			return
		}
		// Burst expired (or numerical shortfall): recompute rates.
		fs.recompute()
	}
	if kind == Write {
		c.counters.WriteOps++
		fs.total.WriteOps++
	} else {
		c.counters.ReadOps++
		fs.total.ReadOps++
	}
	fs.eng.After(fs.mdsDelay(), "pfs/mds-create", func() {
		if s.cancel {
			return
		}
		s.started = true
		fs.sync()
		fs.addStream(s)
		fs.recompute()
	})
	return s
}

// CancelStream aborts a stream; bytes already transferred stay counted.
func (fs *FileSystem) CancelStream(s *Stream) {
	if s == nil || s.finished || s.cancel {
		return
	}
	s.cancel = true
	if !s.started {
		return
	}
	fs.sync()
	fs.removeStream(s)
	fs.eng.Cancel(s.event)
	s.event = des.Event{}
	s.rate = 0
	fs.recompute()
}

// Client returns the handle of the named client node, creating it on
// first use.
func (fs *FileSystem) Client(node string) *Client {
	c, ok := fs.clients[node]
	if !ok {
		if fs.clients == nil {
			fs.clients = make(map[string]*Client)
		}
		c = &Client{fs: fs, name: node}
		fs.clients[node] = c
	}
	return c
}

// Clients returns the handles of the named client nodes, creating the
// missing ones in one block: a monitor that resolves every node up front
// costs a few allocations rather than one per node and per map growth.
func (fs *FileSystem) Clients(nodes []string) []*Client {
	if fs.clients == nil {
		fs.clients = make(map[string]*Client, len(nodes))
	}
	out := make([]*Client, len(nodes))
	var block []Client
	for i, node := range nodes {
		c, ok := fs.clients[node]
		if !ok {
			if len(block) == 0 {
				block = make([]Client, len(nodes)-i)
			}
			c = &block[0]
			block = block[1:]
			*c = Client{fs: fs, name: node}
			fs.clients[node] = c
		}
		out[i] = c
	}
	return out
}

// sync integrates all active streams from the last rate change to now,
// updating per-node and total counters.
func (fs *FileSystem) sync() {
	now := fs.eng.Now()
	dt := now.Sub(fs.lastSync).Seconds()
	if dt <= 0 {
		fs.lastSync = now
		return
	}
	for _, s := range fs.streams {
		moved := s.rate * dt
		if moved > s.total-s.done {
			moved = s.total - s.done
		}
		s.done += moved
		c := &s.client.counters
		if s.kind == Write {
			c.WriteBytes += moved
			fs.total.WriteBytes += moved
		} else {
			c.ReadBytes += moved
			fs.total.ReadBytes += moved
		}
	}
	fs.lastSync = now
}

// inBurst reports whether the stream's client-side write-back burst credit
// still applies.
func (s *Stream) inBurst() bool {
	return s.kind == Write && s.fs.cfg.BurstBoost > 1 && s.done < s.fs.cfg.BurstBytes
}

// recompute solves for every active stream's rate and reschedules each
// stream's next boundary event (completion or burst expiry). Must be called
// with counters synced to now.
//
//waschedlint:hotpath
func (fs *FileSystem) recompute() {
	fs.recomputes++
	cfg := &fs.cfg
	// Streams per volume.
	volCount := fs.volCountScratch
	for i := range volCount {
		volCount[i] = 0
	}
	for _, s := range fs.streams {
		volCount[s.volume]++
	}
	// Per-stream demand: min(client cap, fair share of the volume).
	totalDemand := 0.0
	for _, s := range fs.streams {
		cap := cfg.StreamCap
		if s.inBurst() {
			cap *= cfg.BurstBoost
		}
		volBW := cfg.VolumeBandwidth * fs.volNoise(s.volume)
		//waschedlint:allow floatguard every stream was counted into its own volume above, so the count is >= 1
		share := volBW / float64(volCount[s.volume])
		s.rate = math.Min(cap, share)
		totalDemand += s.rate
	}
	// Client-side token-bucket throttling: streams on a capped node share
	// its allowance proportionally, before server and backend contention —
	// the throttle lives on the client, like a Lustre TBF/NRS rule.
	if fs.capped > 0 {
		for _, s := range fs.streams {
			s.client.demand = 0
		}
		for _, s := range fs.streams {
			if c := s.client; c.capped {
				c.demand += s.rate
			}
		}
		totalDemand = 0
		for _, s := range fs.streams {
			if c := s.client; c.capped && c.demand > c.rateCap {
				if c.rateCap <= 0 {
					s.rate = 0
				} else {
					//waschedlint:allow floatguard demand > rateCap > 0 on this branch, so the denominator is positive
					s.rate *= c.rateCap / c.demand
				}
			}
			totalDemand += s.rate
		}
	}
	// Optional OSS layer: streams on the same server share its bandwidth
	// proportionally when oversubscribed.
	if cfg.Servers > 0 {
		serverDemand := fs.srvDemandScratch
		for i := range serverDemand {
			serverDemand[i] = 0
		}
		for _, s := range fs.streams {
			serverDemand[s.volume%cfg.Servers] += s.rate
		}
		totalDemand = 0
		for _, s := range fs.streams {
			if d := serverDemand[s.volume%cfg.Servers]; d > cfg.ServerBandwidth {
				s.rate *= cfg.ServerBandwidth / d
			}
			totalDemand += s.rate
		}
	}
	// Backend cap with congestion-dependent efficiency.
	k := len(fs.streams)
	eff := 1.0
	if k > cfg.CongestionKnee {
		// A negative CongestionPerStream in a hand-written config could
		// drive the denominator to zero or below; efficiency never rises
		// above 1 with congestion.
		if denom := 1 + cfg.CongestionPerStream*float64(k-cfg.CongestionKnee); denom > 1 {
			eff = 1 / denom
		}
	}
	agg := cfg.ServerCap * eff * fs.globalFactor
	if fs.globalDegrade > 0 {
		agg *= fs.globalDegrade
	}
	if totalDemand > agg && totalDemand > 0 {
		scale := agg / totalDemand
		for _, s := range fs.streams {
			s.rate *= scale
		}
	}
	// Reschedule boundaries.
	now := fs.eng.Now()
	for _, s := range fs.streams {
		fs.scheduleBoundary(s, now)
	}
}

// scheduleBoundary (re)schedules the stream's next event: either its
// completion or the expiry of its burst credit, whichever is sooner. A
// pending boundary moves in place: Reschedule draws a fresh sequence
// number exactly as Cancel + At would, and events fire in strict
// (time, sequence) order, so the firing order is the same either way.
func (fs *FileSystem) scheduleBoundary(s *Stream, now des.Time) {
	if s.rate <= 0 {
		// Stalled; the next noise tick or membership change revives it.
		fs.eng.Cancel(s.event)
		s.event = des.Event{}
		return
	}
	remaining := s.total - s.done
	next := remaining / s.rate
	if s.inBurst() {
		burstLeft := (fs.cfg.BurstBytes - s.done) / s.rate
		if burstLeft < next {
			next = burstLeft
		}
	}
	// Round up so the stream has moved at least the computed bytes when
	// the event fires.
	d := des.Duration(math.Ceil(next * float64(des.Second)))
	if d < 0 {
		d = 0
	}
	if at := now.Add(d); !fs.eng.Reschedule(s.event, at) {
		s.event = fs.eng.At(at, "pfs/stream", s.boundary)
	}
}

func (fs *FileSystem) finish(s *Stream) {
	// Attribute any sub-byte residue so cumulative counters equal the
	// requested sizes exactly.
	residue := s.total - s.done
	if residue > 0 {
		c := &s.client.counters
		if s.kind == Write {
			c.WriteBytes += residue
			fs.total.WriteBytes += residue
		} else {
			c.ReadBytes += residue
			fs.total.ReadBytes += residue
		}
		s.done = s.total
	}
	s.finished = true
	s.rate = 0
	fs.removeStream(s)
	fs.recompute()
	if s.complete != nil {
		s.complete()
	}
}

// TotalCounters returns the cluster-wide cumulative counters as of now.
func (fs *FileSystem) TotalCounters() Counters {
	fs.sync()
	return fs.total
}

// CurrentAggregateRate returns the instantaneous total transfer rate in
// bytes/s (ground truth; the scheduler must use the sampled value from the
// analytics service instead).
func (fs *FileSystem) CurrentAggregateRate() float64 {
	r := 0.0
	for _, s := range fs.streams {
		r += s.rate
	}
	return r
}

// CurrentNodeRates sums the instantaneous rates of active streams by
// client node into dst (cleared first; allocated when nil) and returns
// it. Every byte per second of CurrentAggregateRate is attributed to
// exactly one node here — schedcheck's throughput-attribution invariant
// cross-checks the two against the job-to-node allocation.
func (fs *FileSystem) CurrentNodeRates(dst map[string]float64) map[string]float64 {
	if dst == nil {
		dst = make(map[string]float64, len(fs.clients))
	} else {
		clear(dst)
	}
	for _, s := range fs.streams {
		dst[s.client.name] += s.rate
	}
	return dst
}

// ApplyRateCaps re-solves stream rates now, so that the client caps set
// or cleared since the last solve bind immediately rather than at the
// next stream boundary or noise tick.
func (fs *FileSystem) ApplyRateCaps() {
	fs.sync()
	fs.recompute()
}

// ServerHealth reports each OSS server's current relative health — the
// mean of its volumes' noise bandwidth factors, so 1 is nominal and
// values well below 1 mark a straggling server. The result is written
// into dst (grown when too small) and returned; it is empty when the
// configuration has no server layer. The token-bucket limiter's
// straggler-aware mode reads this to deprioritize I/O bound for slow
// servers, the client-visible counterpart of AdapTBF's straggling-OST
// detection.
func (fs *FileSystem) ServerHealth(dst []float64) []float64 {
	srv := fs.cfg.Servers
	if srv <= 0 {
		return dst[:0]
	}
	if cap(dst) < srv {
		dst = make([]float64, srv)
	}
	dst = dst[:srv]
	for i := range dst {
		dst[i] = 0
	}
	for v := 0; v < fs.cfg.Volumes; v++ {
		dst[v%srv] += fs.volNoise(v)
	}
	for i := range dst {
		// Volumes map to servers round-robin, so server i's volume count
		// follows from the counts alone.
		n := fs.cfg.Volumes / srv
		if i < fs.cfg.Volumes%srv {
			n++
		}
		if n > 0 {
			dst[i] /= float64(n)
		} else {
			dst[i] = 1
		}
	}
	return dst
}

// SetGlobalDegradation scales the backend server capacity by factor
// (1 = healthy). Models OSS-level degradation events.
func (fs *FileSystem) SetGlobalDegradation(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("pfs: degradation factor must be positive, got %g", factor))
	}
	fs.sync()
	fs.globalDegrade = factor
	fs.recompute()
}
