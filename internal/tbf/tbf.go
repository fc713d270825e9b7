// Package tbf models a decentralized, client-side token-bucket bandwidth
// layer over the parallel file system, after AdapTBF (Rashid & Dai): every
// running job owns a token bucket whose fill rate is its fair share of the
// measured PFS capacity, bounded by a burst depth. A periodic control loop
// debits each bucket by the bytes its nodes actually moved (from the same
// cumulative client counters the LDMS sampler reads), refills the fair
// shares, and converts the remaining balance into per-node rate caps that
// the pfs solver enforces ahead of server and backend contention — the
// client-side throttle of a Lustre TBF/NRS rule.
//
// Two adaptive mechanisms ride on the basic bucket:
//
//   - Borrowing. Jobs that under-consume lend part of their unused balance
//     into a per-round pool; throttled jobs borrow from it. Lenders accrue
//     a reclamation credit that gives them first claim on the pool when
//     they later need tokens themselves; the credit decays geometrically
//     so stale claims expire.
//
//   - Straggler awareness. In Straggler mode the limiter reads the file
//     system's per-server health and scales down the allowance of jobs
//     whose I/O is bound for straggling servers: tokens spent against a
//     slow OSS buy little goodput, so the saved balance surfaces as
//     surplus and flows to jobs on healthy servers — the client-visible
//     counterpart of AdapTBF's request reordering away from straggling
//     OSTs (and of Tavakoli et al.'s straggler-aware I/O scheduling).
//
// Unlike the burst-buffer tier (a cluster-wide resource the scheduler
// plans against), the token layer is pure execution-time control: any
// scheduling policy can run above it, which is what makes the central
// reservation vs. decentralized throttling ablation a fair head-to-head.
package tbf

import (
	"fmt"
	"math"
	"sort"

	"wasched/internal/des"
	"wasched/internal/pfs"
)

// Control-loop constants. The schedcheck replayer's token emulation
// (internal/schedcheck/replay.go) uses the exported ones too.
const (
	// DefaultBurstSeconds is the bucket depth in seconds of fair share.
	DefaultBurstSeconds = 60.0
	// CreditDecay is the per-interval geometric decay of reclamation
	// credit; anything that falls below one byte is forgotten.
	CreditDecay = 0.5
	// throttledFrac is the fraction of its allowance a job must have
	// consumed last interval to count as throttled (a borrower).
	throttledFrac = 0.9
	// stragglerFloor is the minimum allowance weight of a job bound for
	// the least healthy server; it keeps straggler-bound I/O trickling.
	stragglerFloor = 0.25
)

// Config describes the token-bucket layer.
type Config struct {
	// CapacityBytesPerSec is the measured PFS capacity divided fairly
	// among running jobs; zero disables the layer entirely (core then
	// builds no Limiter).
	CapacityBytesPerSec float64
	// BurstSeconds is the bucket depth in seconds of fair share
	// (default 60): an idle job can bank at most this much before its
	// refills start spilling.
	BurstSeconds float64
	// Interval is the control-loop period (default 1 s, the same cadence
	// as LDMS sampling).
	Interval des.Duration
	// Servers is the server count used to attribute jobs to their
	// dominant OSS for straggler weighting; it defaults to the file
	// system's configured server count, or 1.
	Servers int
	// Straggler enables straggler-aware allowance weighting.
	Straggler bool
}

// LedgerEntry is the closed token account of one job registration, the
// validator's ground truth for the bucket-conservation invariants:
// Delivered ≤ Granted and Borrowed ≤ Granted per job, and the sum of
// Borrowed never exceeding the sum of Lent across the ledger.
type LedgerEntry struct {
	JobID      string
	Registered des.Time
	Ended      des.Time
	// Granted is every token the job ever received: its initial burst,
	// its fair-share refills (after the burst cap) and its borrow
	// receipts.
	Granted float64
	// Delivered is the bytes the job's nodes actually moved while
	// registered, measured from the pfs client counters.
	Delivered float64
	// Borrowed is the tokens received from the lending pool; Lent is the
	// tokens surrendered to it.
	Borrowed float64
	Lent     float64
}

// bucket is one live job's token account plus per-tick scratch.
type bucket struct {
	LedgerEntry
	clients   []*pfs.Client // the job's nodes, resolved once at Register
	server    int
	lastTotal float64 // sum of node counter totals at last settle
	balance   float64
	credit    float64
	// allowance is the bytes the job was permitted over the previous
	// interval (its cap × interval), for throttle detection.
	allowance float64
	// Per-tick scratch, meaningless between ticks.
	deficit, surplus, claim float64
}

// Limiter is the token-bucket layer. All methods must be called from the
// simulation goroutine.
type Limiter struct {
	eng *des.Engine
	fs  *pfs.FileSystem
	cfg Config

	buckets map[string]*bucket
	order   []*bucket // registration order: deterministic float accumulation
	ledger  []LedgerEntry
	health  []float64
	deltas  []float64
	stop    func()
	last    des.Time

	totalGranted   float64
	totalDelivered float64
	ticks          uint64
}

// New builds a Limiter on the engine and file system and starts its
// control loop. CapacityBytesPerSec must be positive — callers express
// "no token layer" by not building one.
func New(eng *des.Engine, fs *pfs.FileSystem, cfg Config) (*Limiter, error) {
	if eng == nil || fs == nil {
		return nil, fmt.Errorf("tbf: engine and file system are required")
	}
	if cfg.CapacityBytesPerSec <= 0 || math.IsNaN(cfg.CapacityBytesPerSec) || math.IsInf(cfg.CapacityBytesPerSec, 0) {
		return nil, fmt.Errorf("tbf: CapacityBytesPerSec must be positive and finite, got %g", cfg.CapacityBytesPerSec)
	}
	if cfg.BurstSeconds < 0 || math.IsNaN(cfg.BurstSeconds) {
		return nil, fmt.Errorf("tbf: BurstSeconds must be non-negative, got %g", cfg.BurstSeconds)
	}
	if cfg.BurstSeconds == 0 {
		cfg.BurstSeconds = DefaultBurstSeconds
	}
	if cfg.Interval <= 0 {
		cfg.Interval = des.Second
	}
	if cfg.Servers <= 0 {
		cfg.Servers = fs.Config().Servers
		if cfg.Servers <= 0 {
			cfg.Servers = 1
		}
	}
	l := &Limiter{
		eng:     eng,
		fs:      fs,
		cfg:     cfg,
		buckets: make(map[string]*bucket),
		last:    eng.Now(),
	}
	fs.ApplyRateCaps()
	l.stop = eng.Ticker(cfg.Interval, "tbf/tick", func(now des.Time) { l.tick(now) })
	return l, nil
}

// Close stops the control loop and removes every installed rate cap; live
// buckets stay readable but freeze.
func (l *Limiter) Close() {
	if l.stop != nil {
		l.stop()
		l.stop = nil
	}
	for _, b := range l.order {
		for _, c := range b.clients {
			c.ClearRateCap()
		}
	}
	l.fs.ApplyRateCaps()
}

// Capacity returns the configured fair-share capacity in bytes/s.
func (l *Limiter) Capacity() float64 { return l.cfg.CapacityBytesPerSec }

// Ticks returns how many control intervals have elapsed (diagnostics).
func (l *Limiter) Ticks() uint64 { return l.ticks }

// Register opens a bucket for a job that just started on the given nodes.
// The bucket opens with one full burst of tokens so the job's first
// interval is not rate-starved, and the job's nodes are capped from its
// balance immediately.
func (l *Limiter) Register(jobID string, nodes []string) {
	if _, ok := l.buckets[jobID]; ok {
		panic(fmt.Sprintf("tbf: job %s registered twice", jobID))
	}
	if len(nodes) == 0 {
		panic(fmt.Sprintf("tbf: job %s registered with no nodes", jobID))
	}
	n := float64(len(l.order) + 1)
	//waschedlint:allow floatguard n = live buckets + 1 >= 1, so the fair-share denominator is positive
	burst := l.cfg.CapacityBytesPerSec / n * l.cfg.BurstSeconds
	b := &bucket{
		LedgerEntry: LedgerEntry{
			JobID:      jobID,
			Registered: l.eng.Now(),
			Granted:    burst,
		},
		clients: l.fs.Clients(nodes),
		server:  ServerOf(jobID, l.cfg.Servers),
		balance: burst,
	}
	b.lastTotal = nodeTotal(b.clients)
	l.totalGranted += burst
	l.buckets[jobID] = b
	l.order = append(l.order, b)
	l.capBucket(b, 1)
}

// Unregister settles and closes a job's bucket; its unused balance is
// forfeited (tokens are an allowance, not a refund). The caps on its
// nodes are removed so the next occupant starts uncapped.
func (l *Limiter) Unregister(jobID string) {
	b, ok := l.buckets[jobID]
	if !ok {
		panic(fmt.Sprintf("tbf: Unregister for unknown job %s", jobID))
	}
	l.settle(b)
	delete(l.buckets, jobID)
	for i := range l.order {
		if l.order[i] == b {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	for _, c := range b.clients {
		c.ClearRateCap()
	}
	b.Ended = l.eng.Now()
	l.ledger = append(l.ledger, b.LedgerEntry)
}

// Ledger returns the closed token accounts sorted by registration time
// then job ID (deterministic output for the validator and reports).
func (l *Limiter) Ledger() []LedgerEntry {
	out := make([]LedgerEntry, len(l.ledger))
	copy(out, l.ledger)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Registered != out[b].Registered {
			return out[a].Registered < out[b].Registered
		}
		return out[a].JobID < out[b].JobID
	})
	return out
}

// Totals returns the cumulative granted and delivered bytes across all
// buckets, live and closed. Delivered lags physical transfer by at most
// one control interval, which keeps the sampled series conservative with
// respect to the delivered ≤ granted invariant. Totals and JobTokens
// implement trace.TBFStats.
func (l *Limiter) Totals() (granted, delivered float64) {
	return l.totalGranted, l.totalDelivered
}

// JobTokens reports a job's token account — its live bucket, or its most
// recent ledger entry once closed; ok is false for jobs that never
// registered.
func (l *Limiter) JobTokens(jobID string) (granted, delivered, borrowed, lent float64, ok bool) {
	if b, live := l.buckets[jobID]; live {
		return b.Granted, b.Delivered, b.Borrowed, b.Lent, true
	}
	for i := len(l.ledger) - 1; i >= 0; i-- {
		if l.ledger[i].JobID == jobID {
			e := l.ledger[i]
			return e.Granted, e.Delivered, e.Borrowed, e.Lent, true
		}
	}
	return 0, 0, 0, 0, false
}

// nodeTotal sums the cumulative client counters over a job's nodes.
func nodeTotal(clients []*pfs.Client) float64 {
	t := 0.0
	for _, c := range clients {
		t += c.Counters().Total()
	}
	return t
}

// settle debits a bucket by the bytes its nodes moved since the last
// settle. The balance is clamped at zero: enforcement caps delivery at
// the balance, so an overdraft can only be sub-byte solver rounding.
//
//waschedlint:hotpath
func (l *Limiter) settle(b *bucket) float64 {
	cur := nodeTotal(b.clients)
	delta := cur - b.lastTotal
	if delta < 0 || math.IsNaN(delta) {
		delta = 0
	}
	b.lastTotal = cur
	b.Delivered += delta
	l.totalDelivered += delta
	b.balance -= delta
	if b.balance < 0 {
		b.balance = 0
	}
	return delta
}

// tick runs one control interval: settle every bucket, rebalance the
// token accounts, and install the next interval's rate caps.
//
//waschedlint:hotpath
func (l *Limiter) tick(now des.Time) {
	l.ticks++
	dt := now.Sub(l.last).Seconds()
	l.last = now
	if len(l.order) == 0 || dt <= 0 {
		return
	}
	l.deltas = l.deltas[:0]
	for _, b := range l.order {
		l.deltas = append(l.deltas, l.settle(b))
	}
	granted := redistribute(l.order, l.cfg.CapacityBytesPerSec, l.cfg.BurstSeconds, dt, l.deltas)
	l.totalGranted += granted

	// Straggler-aware allowance weighting: jobs bound for unhealthy
	// servers get a reduced cap, so their unusable tokens surface as
	// surplus next round and flow to healthy-server jobs.
	hBest := 0.0
	if l.cfg.Straggler {
		l.health = l.fs.ServerHealth(l.health)
		for _, h := range l.health {
			if h > hBest {
				hBest = h
			}
		}
	}
	for _, b := range l.order {
		weight := 1.0
		if hBest > 0 && len(l.health) > 0 {
			h := l.health[b.server%len(l.health)]
			//waschedlint:allow floatguard hBest > 0 is checked on this branch
			weight = stragglerFloor + (1-stragglerFloor)*h/hBest
		}
		l.capBucket(b, weight)
	}
	l.fs.ApplyRateCaps()
}

// capBucket converts a bucket's balance into per-node rate caps for one
// interval, scaled by the straggler weight.
//
//waschedlint:hotpath
func (l *Limiter) capBucket(b *bucket, weight float64) {
	intervalSec := l.cfg.Interval.Seconds()
	//waschedlint:allow floatguard Interval is validated positive in New and Register requires nodes
	rate := b.balance / intervalSec * weight
	b.allowance = rate * intervalSec
	//waschedlint:allow floatguard Register rejects empty node lists, so the per-node denominator is >= 1
	per := rate / float64(len(b.clients))
	for _, c := range b.clients {
		c.SetRateCap(per)
	}
}

// redistribute advances every bucket's token account by one control
// interval: debit already done by the caller (deltas are the measured
// deliveries, aligned with order), it refills fair shares up to the burst
// depth, runs the lend / reclaim-first / pro-rata borrowing exchange and
// decays reclamation credits. It returns the total freshly granted tokens
// (refills plus borrow receipts — lending moves existing tokens, so the
// pool itself grants nothing). Factored out of tick so the fuzz harness
// can drive it with arbitrary deliveries and intervals.
//
//waschedlint:hotpath
func redistribute(order []*bucket, capacity, burstSec, dt float64, deltas []float64) float64 {
	n := float64(len(order))
	if n == 0 {
		return 0
	}
	share := capacity / n
	burst := share * burstSec
	granted := 0.0
	totalSurplus, totalDeficit := 0.0, 0.0
	for i, b := range order {
		refill := share * dt
		if room := burst - b.balance; refill > room {
			refill = room
		}
		if refill > 0 {
			b.balance += refill
			b.Granted += refill
			granted += refill
		}
		// A job that consumed (nearly) all of its last allowance was
		// throttled: it runs a deficit of one interval's fair share. The
		// burst depth caps banked refills, not borrow receipts — a
		// borrower spends immediately, so its balance may briefly exceed
		// the depth by the borrowed share. Everyone else can lend the
		// balance beyond one interval's refill.
		throttled := b.allowance > 0 && deltas[i] >= throttledFrac*b.allowance
		b.deficit, b.surplus, b.claim = 0, 0, 0
		if throttled {
			b.deficit = share * dt
			totalDeficit += b.deficit
		} else if s := b.balance - share*dt; s > 0 {
			b.surplus = s
			totalSurplus += s
		}
	}
	pool := math.Min(totalSurplus, totalDeficit)
	if pool > 0 {
		//waschedlint:allow floatguard pool > 0 implies totalSurplus > 0
		lendFrac := pool / totalSurplus
		for _, b := range order {
			if b.surplus <= 0 {
				continue
			}
			lend := b.surplus * lendFrac
			b.balance -= lend
			if b.balance < 0 {
				b.balance = 0
			}
			b.Lent += lend
			b.credit += lend
		}
		// Reclaim-first: lenders holding credit have first claim on the
		// pool, pro-rata by claim when the pool is short.
		totalClaim := 0.0
		for _, b := range order {
			b.claim = math.Min(b.deficit, b.credit)
			totalClaim += b.claim
		}
		if totalClaim > 0 {
			scale := 1.0
			if totalClaim > pool {
				//waschedlint:allow floatguard totalClaim > pool > 0 on this branch
				scale = pool / totalClaim
			}
			for _, b := range order {
				if b.claim <= 0 {
					continue
				}
				r := b.claim * scale
				b.balance += r
				b.Borrowed += r
				b.Granted += r
				granted += r
				b.credit -= r
				if b.credit < 0 {
					b.credit = 0
				}
				b.deficit -= r
				pool -= r
				totalDeficit -= r
			}
		}
		// Pro-rata remainder over the outstanding deficits.
		if pool > 0 && totalDeficit > 0 {
			frac := pool / totalDeficit
			if frac > 1 {
				frac = 1
			}
			for _, b := range order {
				if b.deficit <= 0 {
					continue
				}
				r := b.deficit * frac
				b.balance += r
				b.Borrowed += r
				b.Granted += r
				granted += r
			}
		}
	}
	for _, b := range order {
		b.credit *= CreditDecay
		if b.credit < 1 {
			b.credit = 0
		}
	}
	return granted
}

// ServerOf attributes a job to its dominant OSS by FNV-1a hash of its ID:
// a stable assignment with no RNG state to carry, which the schedcheck
// replayer shares, so the two layers agree on which jobs straggle
// together.
func ServerOf(jobID string, servers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(jobID); i++ {
		h ^= uint32(jobID[i])
		h *= 16777619
	}
	return int(h % uint32(servers))
}
