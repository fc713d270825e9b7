// Package bb models a shared burst-buffer appliance layered on the DES
// engine, after Kopanski/Rzadca's shared burst-buffer architecture: a
// finite pool of fast intermediate storage that jobs reserve for their
// whole lifetime. A job's data is staged in from the PFS before its
// program starts, and its dirty data is drained (staged out) back to the
// PFS after it ends — both as ordinary pfs streams on dedicated appliance
// node names, so stage and drain traffic contends for the same bandwidth
// arbitration as the jobs' own I/O and shows up in the LDMS-style node
// samples the recorders already collect.
//
// Capacity accounting is strict by construction: Admit reserves the whole
// request against the pool and the reservation is held until the drain
// stream completes, so occupancy can never exceed capacity. The scheduler
// side (sched.PlanPolicy, sched.BBAwarePolicy) plans against the same
// pool; policies that ignore burst buffers still run correctly because
// the controller defers starts whose demand does not fit.
package bb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
)

// Config describes the burst-buffer appliance.
type Config struct {
	// CapacityBytes is the shared pool size in bytes; zero disables the
	// tier entirely (core.NewSystem then builds no Tier).
	CapacityBytes float64
}

// stageNodes and drainNodes are how many appliance node names carry
// stage-in (PFS reads) respectively drain (PFS writes) streams.
const (
	stageNodes = 2
	drainNodes = 2
)

// ErrCapacity is returned by Admit when the request does not fit the free
// pool right now; the caller retries on a later scheduling round.
var ErrCapacity = errors.New("bb: insufficient free burst-buffer capacity")

// clampNonNeg guards occupancy/rate arithmetic against NaN and negative
// inputs (floatguard contract for this package).
func clampNonNeg(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// LedgerEntry records one finished burst-buffer attempt: reservation,
// stage-in, compute and drain milestones. Entries are the validator's
// ground truth for the BB invariants.
type LedgerEntry struct {
	JobID        string
	Bytes        float64
	Admitted     des.Time
	StageInDone  des.Time // meaningful when Staged
	ComputeStart des.Time // meaningful when Staged
	Ended        des.Time
	DrainEnd     des.Time
	Drained      float64
	// Staged reports that stage-in finished and the program ran; a job
	// killed mid-stage-in has no dirty data and drains nothing.
	Staged bool
	// Requeued reports the attempt ended in preemption/requeue rather
	// than terminally.
	Requeued bool
}

// entry is one live attempt, from Admit until its drain completes.
type entry struct {
	LedgerEntry
	stage *pfs.Stream
	ended bool
}

// Tier is the burst-buffer appliance model.
type Tier struct {
	eng *des.Engine
	fs  *pfs.FileSystem
	cfg Config

	occupied float64

	stageNames []string
	drainNames []string
	nextStage  int
	nextDrain  int
	nextVol    int

	active   map[string]*entry // admitted, not yet ended
	draining []*entry          // ended, drain in flight
	ledger   []LedgerEntry     // closed attempts

	rateScratch map[string]float64
}

// New builds a Tier. CapacityBytes must be positive — a zero-capacity
// appliance is "no burst buffer", which callers express by not building
// the tier at all.
func New(eng *des.Engine, fs *pfs.FileSystem, cfg Config) (*Tier, error) {
	if eng == nil || fs == nil {
		return nil, fmt.Errorf("bb: engine and file system are required")
	}
	if cfg.CapacityBytes <= 0 || math.IsNaN(cfg.CapacityBytes) {
		return nil, fmt.Errorf("bb: CapacityBytes must be positive, got %g", cfg.CapacityBytes)
	}
	t := &Tier{
		eng:         eng,
		fs:          fs,
		cfg:         cfg,
		active:      map[string]*entry{},
		rateScratch: map[string]float64{},
	}
	for i := 0; i < stageNodes; i++ {
		t.stageNames = append(t.stageNames, fmt.Sprintf("bb-in%d", i))
	}
	for i := 0; i < drainNodes; i++ {
		t.drainNames = append(t.drainNames, fmt.Sprintf("bb-out%d", i))
	}
	return t, nil
}

// Capacity returns the pool size in bytes.
func (t *Tier) Capacity() float64 { return t.cfg.CapacityBytes }

// Occupied returns the bytes currently reserved (admitted jobs plus
// attempts still draining).
func (t *Tier) Occupied() float64 { return t.occupied }

// ApplianceNodes returns the node names carrying stage/drain traffic, in
// a fixed order, so recorders can attribute their sampled rates.
func (t *Tier) ApplianceNodes() []string {
	names := make([]string, 0, len(t.stageNames)+len(t.drainNames))
	names = append(names, t.stageNames...)
	names = append(names, t.drainNames...)
	return names
}

// Rates returns the current aggregate stage-in and drain throughput in
// bytes/s, from the file system's per-node stream rates.
func (t *Tier) Rates() (stage, drain float64) {
	t.rateScratch = t.fs.CurrentNodeRates(t.rateScratch)
	for _, n := range t.stageNames {
		stage += clampNonNeg(t.rateScratch[n])
	}
	for _, n := range t.drainNames {
		drain += clampNonNeg(t.rateScratch[n])
	}
	return stage, drain
}

// Feasible reports whether a request could ever be admitted: demand must
// be positive and fit the whole pool. The controller rejects infeasible
// requests at submission so they cannot pend forever.
func (t *Tier) Feasible(bytes float64) error {
	if bytes <= 0 || math.IsNaN(bytes) {
		return fmt.Errorf("bb: demand must be positive, got %g", bytes)
	}
	if bytes > t.cfg.CapacityBytes {
		return fmt.Errorf("bb: demand %g exceeds pool capacity %g", bytes, t.cfg.CapacityBytes)
	}
	return nil
}

// Admit reserves bytes for jobID, or reports ErrCapacity when the free
// pool is too small right now (the caller retries next round). The
// reservation is held until JobEnded's drain completes.
func (t *Tier) Admit(jobID string, bytes float64) error {
	if err := t.Feasible(bytes); err != nil {
		return err
	}
	if _, ok := t.active[jobID]; ok {
		panic(fmt.Sprintf("bb: job %s admitted twice", jobID))
	}
	if t.occupied+bytes > t.cfg.CapacityBytes {
		return fmt.Errorf("%w: need %g, free %g", ErrCapacity, bytes, t.cfg.CapacityBytes-t.occupied)
	}
	t.occupied += bytes
	t.active[jobID] = &entry{LedgerEntry: LedgerEntry{
		JobID:    jobID,
		Bytes:    bytes,
		Admitted: t.eng.Now(),
	}}
	return nil
}

// Wrap returns inner preceded by the job's stage-in: the program starts
// only after the staged bytes have been read from the PFS. The job must
// have been admitted.
func (t *Tier) Wrap(jobID string, inner cluster.Program) cluster.Program {
	if _, ok := t.active[jobID]; !ok {
		panic(fmt.Sprintf("bb: job %s not admitted", jobID))
	}
	return &stagedProgram{t: t, jobID: jobID, inner: inner}
}

// JobEnded starts the attempt's stage-out: dirty data (the full
// reservation once compute has started; nothing if the job died during
// stage-in) drains to the PFS as a write stream, and the capacity
// reservation is released when the drain completes.
func (t *Tier) JobEnded(jobID string, requeued bool) {
	e, ok := t.active[jobID]
	if !ok {
		panic(fmt.Sprintf("bb: JobEnded for unknown job %s", jobID))
	}
	delete(t.active, jobID)
	e.ended = true
	e.Ended = t.eng.Now()
	e.Requeued = requeued
	if e.stage != nil {
		t.fs.CancelStream(e.stage)
		e.stage = nil
	}
	if !e.Staged {
		// Died before stage-in finished: nothing dirty, release now.
		t.release(e, 0)
		return
	}
	t.draining = append(t.draining, e)
	dirty := e.Bytes
	t.fs.StartStream(t.pickDrainNode(), pfs.Write, t.pickVolume(), dirty, func() {
		t.unlink(e)
		t.release(e, dirty)
	})
}

// release closes an attempt: frees its reservation and appends the
// ledger record.
func (t *Tier) release(e *entry, drained float64) {
	e.DrainEnd = t.eng.Now()
	e.Drained = drained
	t.occupied -= e.Bytes
	if t.occupied < 0 {
		t.occupied = 0
	}
	t.ledger = append(t.ledger, e.LedgerEntry)
}

// unlink removes e from the draining list.
func (t *Tier) unlink(e *entry) {
	for i, d := range t.draining {
		if d == e {
			t.draining = append(t.draining[:i], t.draining[i+1:]...)
			return
		}
	}
}

// Ledger returns the closed attempts sorted by admission time then job ID
// (deterministic output for reports and the validator).
func (t *Tier) Ledger() []LedgerEntry {
	out := make([]LedgerEntry, len(t.ledger))
	copy(out, t.ledger)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Admitted != out[b].Admitted {
			return out[a].Admitted < out[b].Admitted
		}
		return out[a].JobID < out[b].JobID
	})
	return out
}

// JobInfo reports the stage milestones of jobID's most recent attempt in
// seconds (bytes, stage-in end, compute start); ok is false when the job
// never held a reservation. Recorders use it to enrich job traces.
func (t *Tier) JobInfo(jobID string) (bytes, stageInDone, computeStart float64, ok bool) {
	if e, live := t.active[jobID]; live {
		return t.info(&e.LedgerEntry)
	}
	for i := len(t.draining) - 1; i >= 0; i-- {
		if t.draining[i].JobID == jobID {
			return t.info(&t.draining[i].LedgerEntry)
		}
	}
	for i := len(t.ledger) - 1; i >= 0; i-- {
		if t.ledger[i].JobID == jobID {
			return t.info(&t.ledger[i])
		}
	}
	return 0, 0, 0, false
}

func (t *Tier) info(e *LedgerEntry) (bytes, stageInDone, computeStart float64, ok bool) {
	if !e.Staged {
		return e.Bytes, 0, 0, true
	}
	return e.Bytes, e.StageInDone.Seconds(), e.ComputeStart.Seconds(), true
}

// pickVolume round-robins drain/stage traffic over the PFS volumes.
func (t *Tier) pickVolume() int {
	v := t.nextVol % t.fs.Volumes()
	t.nextVol++
	return v
}

func (t *Tier) pickStageNode() string {
	n := t.stageNames[t.nextStage%len(t.stageNames)]
	t.nextStage++
	return n
}

func (t *Tier) pickDrainNode() string {
	n := t.drainNames[t.nextDrain%len(t.drainNames)]
	t.nextDrain++
	return n
}

// stagedProgram runs the stage-in read before starting the wrapped
// program. Stopping it mid-stage cancels the stream; the inner program is
// stopped only if it ever started.
type stagedProgram struct {
	t     *Tier
	jobID string
	inner cluster.Program
}

// Start implements cluster.Program.
func (p *stagedProgram) Start(ctx *cluster.Context, nodes []string, done func()) (stop func()) {
	e, ok := p.t.active[p.jobID]
	if !ok {
		panic(fmt.Sprintf("bb: staged program for %s started without admission", p.jobID))
	}
	var innerStop func()
	stopped := false
	e.stage = p.t.fs.StartStream(p.t.pickStageNode(), pfs.Read, p.t.pickVolume(), e.Bytes, func() {
		e.stage = nil
		if stopped {
			return
		}
		now := p.t.eng.Now()
		e.Staged = true
		e.StageInDone = now
		e.ComputeStart = now
		innerStop = p.inner.Start(ctx, nodes, done)
	})
	return func() {
		stopped = true
		if innerStop != nil {
			innerStop()
			return
		}
		if e.stage != nil {
			p.t.fs.CancelStream(e.stage)
			e.stage = nil
		}
	}
}
