package workload

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
)

// SWFOptions controls the conversion of a Standard Workload Format trace
// (the Parallel Workloads Archive format) into schedulable jobs. SWF
// records carry no I/O information, so a configurable fraction of jobs is
// synthetically assigned a write phase — the standard trick in I/O-aware
// scheduling studies (and the reason the paper built its own workloads).
type SWFOptions struct {
	// CoresPerNode converts SWF processor counts to node counts
	// (ceil division). The paper's Stria has 56 cores per node.
	CoresPerNode int
	// MaxNodes drops (with a count returned) jobs wider than the cluster.
	MaxNodes int
	// IOFraction of jobs (deterministically chosen by job number) carry a
	// synthetic write phase.
	IOFraction float64
	// IOShare is the fraction of an I/O job's runtime spent writing; the
	// write is sized so an isolated job spends roughly IOShare·runtime on
	// it at IORate.
	IOShare float64
	// IORate is the isolated per-job write rate used for sizing, bytes/s.
	IORate float64
	// MaxJobs truncates the trace (0 = no limit).
	MaxJobs int
	// Seed drives the deterministic I/O assignment.
	Seed uint64
	// BBFraction of jobs carry a synthetic burst-buffer reservation
	// (default 0: burst buffers off). The assignment draws from its own
	// deterministic stream, so enabling it never reshuffles which jobs
	// do I/O.
	BBFraction float64
	// BBGiBPerNode sizes a BB job's reservation: nodes × BBGiBPerNode GiB.
	BBGiBPerNode float64
}

// DefaultSWFOptions matches the paper's environment: 56 cores/node,
// 15 nodes, 40% of jobs doing I/O for ~30% of their runtime at the
// calibrated isolated write×8 rate.
func DefaultSWFOptions() SWFOptions {
	return SWFOptions{
		CoresPerNode: 56,
		MaxNodes:     15,
		IOFraction:   0.4,
		IOShare:      0.3,
		IORate:       2.5 * pfs.GiB,
		Seed:         1,
	}
}

// Validate checks the options.
func (o SWFOptions) Validate() error {
	switch {
	case o.CoresPerNode <= 0:
		return fmt.Errorf("workload: CoresPerNode must be positive, got %d", o.CoresPerNode)
	case o.MaxNodes <= 0:
		return fmt.Errorf("workload: MaxNodes must be positive, got %d", o.MaxNodes)
	case o.IOFraction < 0 || o.IOFraction > 1:
		return fmt.Errorf("workload: IOFraction must be in [0,1], got %g", o.IOFraction)
	case o.IOShare < 0 || o.IOShare >= 1:
		return fmt.Errorf("workload: IOShare must be in [0,1), got %g", o.IOShare)
	case o.IOFraction > 0 && o.IORate <= 0:
		return fmt.Errorf("workload: IORate must be positive, got %g", o.IORate)
	case o.MaxJobs < 0:
		return fmt.Errorf("workload: MaxJobs must be non-negative, got %d", o.MaxJobs)
	case o.BBFraction < 0 || o.BBFraction > 1:
		return fmt.Errorf("workload: BBFraction must be in [0,1], got %g", o.BBFraction)
	case o.BBFraction > 0 && o.BBGiBPerNode <= 0:
		return fmt.Errorf("workload: BBGiBPerNode must be positive, got %g", o.BBGiBPerNode)
	}
	return nil
}

// SWFRecord is one usable data row of an SWF trace, in the raw units of
// the format (seconds and processors). Field numbering follows the archive
// spec: 1 job number, 2 submit time, 4 run time, 8 requested processors
// (5 allocated as fallback), 9 requested time, 12 user ID.
type SWFRecord struct {
	JobNo   int64
	Submit  float64
	Runtime float64
	Procs   float64
	ReqTime float64
	UserID  int64
}

// SWFQuirks counts the malformed rows a trace carried, by quirk. Real
// archive traces have all of these — `-1` sentinels where a value was
// never recorded, negative runtimes from crashed accounting, truncated
// rows, submit times that go backwards after a clock step — so the parser
// skips (or, for ordering, repairs) and counts rather than aborting the
// whole trace on the first one.
type SWFQuirks struct {
	// ShortLines counts non-comment rows with fewer than 12 fields
	// (skipped).
	ShortLines int
	// BadSubmit counts rows whose submit time is negative, unparseable or
	// past swfMaxValue, including the format's -1 missing-value sentinel
	// (skipped).
	BadSubmit int
	// BadRuntime counts rows whose runtime is non-positive, under a
	// microsecond, past swfMaxValue or unparseable — -1 sentinels, the 0
	// of jobs cancelled before start, and negative runtimes from broken
	// accounting (skipped).
	BadRuntime int
	// BadProcs counts rows with no positive processor count in either the
	// requested or the allocated field, or one past swfMaxValue (skipped).
	BadProcs int
	// TooWide counts jobs wider than MaxNodes after core→node conversion
	// (skipped; only conversion fills this, never record parsing).
	TooWide int
	// OutOfOrderSubmits counts rows whose submit time precedes an earlier
	// row's. The rows are kept — the converted job list is re-sorted by
	// submit time so the trace replays correctly.
	OutOfOrderSubmits int
}

// Skipped is the total number of rows the quirks dropped. Out-of-order
// rows are repaired, not dropped, so they are not part of this sum.
func (q SWFQuirks) Skipped() int {
	return q.ShortLines + q.BadSubmit + q.BadRuntime + q.BadProcs + q.TooWide
}

// String renders the non-zero counters as one compact warning line.
func (q SWFQuirks) String() string {
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(q.ShortLines, "short lines")
	add(q.BadSubmit, "bad submit times")
	add(q.BadRuntime, "bad runtimes")
	add(q.BadProcs, "bad processor counts")
	add(q.TooWide, "too wide")
	add(q.OutOfOrderSubmits, "out-of-order submits")
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, ", ")
}

// merge adds the row-level counters from record parsing into the
// conversion's quirks.
func (q *SWFQuirks) merge(o SWFQuirks) {
	q.ShortLines += o.ShortLines
	q.BadSubmit += o.BadSubmit
	q.BadRuntime += o.BadRuntime
	q.BadProcs += o.BadProcs
	q.TooWide += o.TooWide
	q.OutOfOrderSubmits += o.OutOfOrderSubmits
}

// SWFResult reports what the conversion kept and dropped.
type SWFResult struct {
	Jobs []TimedSpec
	// Quirks breaks the dropped rows down by cause.
	Quirks SWFQuirks
	// Dropped aggregates every skipped row (== Quirks.Skipped()).
	Dropped int
}

// swfMaxValue bounds the submit time, run time, requested time and
// processor count of an SWF row: 1e9 s is about 31 years and 1e9
// processors dwarfs any machine. Below it the microsecond and node-count
// conversions stay exact and cannot overflow.
const swfMaxValue = 1e9

// swfFields is the number of leading fields a usable SWF row needs; the
// format's remaining six are not read.
const swfFields = 12

// swfSpace marks the ASCII whitespace strings.Fields splits on.
var swfSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseSWFRecords reads the raw rows of a Standard Workload Format trace.
// Comment/header lines begin with ';'. Malformed rows are skipped and
// counted by quirk rather than failing the parse — a million-job archive
// trace routinely carries a handful of them — and rows with regressing
// submit times are kept but counted so callers know to re-sort. An error
// is returned only when reading itself fails.
//
// Fields are separated by whitespace as strings.Fields defines it, and
// each parses as strconv.ParseFloat would, an unparseable one as -1. An
// ASCII row is split in place, without allocating. A row with a byte
// >= 0x80 in or before its first 12 fields goes through bytes.TrimSpace
// and bytes.Fields, which split as their strings namesakes do, so
// Unicode whitespace such as NEL and NBSP separates fields there too.
func ParseSWFRecords(r io.Reader) ([]SWFRecord, SWFQuirks, error) {
	var (
		recs       []SWFRecord
		quirks     SWFQuirks
		prevSubmit = math.Inf(-1)
		f          [swfFields][]byte
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		n := splitSWFLine(sc.Bytes(), &f)
		if n == 0 || f[0][0] == ';' {
			continue // blank or comment
		}
		if n < swfFields {
			quirks.ShortLines++
			continue
		}
		rec := SWFRecord{
			JobNo:   int64(swfNum(f[0])),
			Submit:  swfNum(f[1]),
			Runtime: swfNum(f[3]),
			Procs:   swfNum(f[7]),
			ReqTime: swfNum(f[8]),
			UserID:  int64(swfNum(f[11])),
		}
		if rec.Procs <= 0 {
			rec.Procs = swfNum(f[4]) // fall back to allocated processors
		}
		// The negated ranges also catch NaN.
		switch {
		case !(rec.Submit >= 0 && rec.Submit <= swfMaxValue):
			quirks.BadSubmit++
			continue
		case !(rec.Runtime > 0 && rec.Runtime <= swfMaxValue) || des.FromSeconds(rec.Runtime) <= 0:
			quirks.BadRuntime++
			continue
		case !(rec.Procs > 0 && rec.Procs <= swfMaxValue):
			quirks.BadProcs++
			continue
		}
		if !(rec.ReqTime <= swfMaxValue) {
			rec.ReqTime = -1 // unusable: the limit falls back to twice the runtime
		}
		if rec.Submit < prevSubmit {
			quirks.OutOfOrderSubmits++
		} else {
			prevSubmit = rec.Submit
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, quirks, fmt.Errorf("workload: swf read: %w", err)
	}
	return recs, quirks, nil
}

// splitSWFLine stores the first len(f) whitespace-separated fields of line
// in f, as slices of line, and returns how many it found. A byte >= 0x80
// before the end of the last field sends the line to splitUnicodeLine;
// past it, none can change the fields.
func splitSWFLine(line []byte, f *[swfFields][]byte) int {
	n, i := 0, 0
	for n < len(f) {
		for i < len(line) && swfSpace[line[i]] {
			i++
		}
		j := i
		for j < len(line) && !swfSpace[line[j]] && line[j] < 0x80 {
			j++
		}
		if j < len(line) && line[j] >= 0x80 {
			return splitUnicodeLine(line, f)
		}
		if j == i {
			break // end of line
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	return n
}

// splitUnicodeLine is splitSWFLine for a line that is not all ASCII.
func splitUnicodeLine(line []byte, f *[swfFields][]byte) int {
	return copy(f[:], bytes.Fields(bytes.TrimSpace(line)))
}

// swfNum parses one field as strconv.ParseFloat does, or returns -1 when
// it does not parse. A plain decimal integer of at most 15 digits, which a
// float64 holds exactly, is converted by hand.
func swfNum(b []byte) float64 {
	d := b
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if v, ok := swfDigits(d); ok {
		if len(d) < len(b) {
			return -float64(v) // "-0" is negative zero, as ParseFloat has it
		}
		return float64(v)
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return -1
	}
	return v
}

// swfDigits returns the value of d when it is 1 to 15 decimal digits.
func swfDigits(d []byte) (int64, bool) {
	if len(d) == 0 || len(d) > 15 {
		return 0, false
	}
	var v int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// SWFJob is one record as every converter shapes it: the node count, the
// limit, and the deterministic synthetic I/O and burst-buffer assignment.
type SWFJob struct {
	Nodes   int
	Limit   float64 // seconds, includes the 60 s scheduling margin
	Runtime float64 // seconds
	DoesIO  bool
	IOTime  float64 // seconds of Runtime spent writing (0 when !DoesIO)
	Bytes   float64 // total bytes written (0 when !DoesIO)
	// BBBytes is the burst-buffer demand: zero when the record's draw
	// misses BBFraction, Nodes × BBGiBPerNode GiB otherwise.
	BBBytes float64
	// Fingerprint is "swf-cpu-n<Nodes>" or "swf-io-n<Nodes>", with "-bb"
	// when BBBytes > 0. Jobs of one shape share one string.
	Fingerprint string
}

// The RNG streams of the I/O and the burst-buffer assignment. They are
// distinct on purpose: turning BB on or off leaves the I/O assignment
// untouched.
const (
	swfIOStream = "workload/swf"
	swfBBStream = "workload/swf-bb"
)

// EachSWFJob is the record loop of every SWF converter, so the jobs that
// carry synthetic I/O in a lightweight replay are the very jobs that carry
// it in the full prototype. It drops the records wider than MaxNodes
// after core→node conversion (ceil division, at least one node), counting
// them in the returned quirks' TooWide; they consume no draw. Every other
// record draws once from the I/O stream and once from the burst-buffer
// stream and goes to keep with its job, until MaxJobs jobs are kept.
func EachSWFJob(records []SWFRecord, opts SWFOptions, keep func(rec *SWFRecord, job SWFJob)) (SWFQuirks, error) {
	if err := opts.Validate(); err != nil {
		return SWFQuirks{}, err
	}
	ioRng := des.NewRNG(opts.Seed, swfIOStream)
	bbRng := des.NewRNG(opts.Seed, swfBBStream)
	var (
		quirks SWFQuirks
		fps    = swfFingerprints{}
		kept   int
	)
	for i := range records {
		rec := &records[i]
		nodes := max(int(math.Ceil(rec.Procs/float64(opts.CoresPerNode))), 1)
		if nodes > opts.MaxNodes {
			quirks.TooWide++
			continue
		}
		limit := rec.ReqTime
		if limit <= 0 || limit < rec.Runtime {
			limit = rec.Runtime * 2
		}
		job := SWFJob{Nodes: nodes, Limit: limit + 60, Runtime: rec.Runtime}
		if ioRng.Float64() < opts.IOFraction && rec.Runtime > 2 {
			job.DoesIO = true
			job.IOTime = rec.Runtime * opts.IOShare
			job.Bytes = job.IOTime * opts.IORate
		}
		if bbRng.Float64() < opts.BBFraction {
			job.BBBytes = float64(nodes) * opts.BBGiBPerNode * pfs.GiB
		}
		job.Fingerprint = fps.get(nodes, job.DoesIO, job.BBBytes > 0)
		keep(rec, job)
		if kept++; opts.MaxJobs > 0 && kept >= opts.MaxJobs {
			break
		}
	}
	return quirks, nil
}

// swfFingerprints interns SWFJob fingerprints by node count, I/O and
// burst-buffer flag.
type swfFingerprints map[int]string

func (m swfFingerprints) get(nodes int, io, bb bool) string {
	key := nodes << 2
	if io {
		key |= 1
	}
	if bb {
		key |= 2
	}
	if fp, ok := m[key]; ok {
		return fp
	}
	prefix := "swf-cpu-n"
	if io {
		prefix = "swf-io-n"
	}
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], prefix...), int64(nodes), 10)
	if bb {
		b = append(b, "-bb"...)
	}
	m[key] = string(b)
	return m[key]
}

// ConvertSWF turns parsed records into schedulable job specs under opts.
// See ParseSWF for the field semantics.
func ConvertSWF(records []SWFRecord, opts SWFOptions) (SWFResult, error) {
	var res SWFResult
	quirks, err := EachSWFJob(records, opts, func(rec *SWFRecord, job SWFJob) {
		// The name is copied out of buf before buf holds the user.
		var buf [32]byte
		name := string(strconv.AppendInt(append(buf[:0], "swf-"...), rec.JobNo, 10))
		spec := slurm.JobSpec{
			Name:        name,
			Nodes:       job.Nodes,
			Limit:       des.FromSeconds(job.Limit),
			User:        string(strconv.AppendInt(append(buf[:0], "user"...), rec.UserID, 10)),
			Fingerprint: job.Fingerprint,
			BBBytes:     job.BBBytes,
		}
		if job.DoesIO {
			spec.Program = cluster.BurstyProgram{
				Cycles:         1,
				Compute:        des.FromSeconds(job.Runtime - job.IOTime),
				Threads:        4 * job.Nodes,
				BytesPerThread: job.Bytes / float64(4*job.Nodes),
			}
		} else {
			spec.Program = cluster.SleepProgram{D: des.FromSeconds(job.Runtime)}
		}
		res.Jobs = append(res.Jobs, TimedSpec{At: des.TimeFromSeconds(rec.Submit), Spec: spec})
	})
	if err != nil {
		return SWFResult{}, err
	}
	res.Quirks = quirks
	return res, nil
}

// ParseSWF converts a Standard Workload Format trace into schedulable
// jobs: ParseSWFRecords, then ConvertSWF. Comment/header lines begin with
// ';'. The fields used are: 1 job number, 2 submit time, 4 run time, 8
// requested processors (5 allocated as fallback), 9 requested time, 12
// user ID. Malformed rows — `-1` sentinels, negative runtimes, truncated
// lines — are skipped and counted in the result's Quirks instead of
// failing the trace, and a trace with out-of-order submit times comes
// back sorted.
func ParseSWF(r io.Reader, opts SWFOptions) (SWFResult, error) {
	if err := opts.Validate(); err != nil {
		return SWFResult{}, err
	}
	records, quirks, err := ParseSWFRecords(r)
	if err != nil {
		return SWFResult{Quirks: quirks, Dropped: quirks.Skipped()}, err
	}
	res, err := ConvertSWF(records, opts)
	if err != nil {
		return res, err
	}
	res.Quirks.merge(quirks)
	res.Dropped = res.Quirks.Skipped()
	if res.Quirks.OutOfOrderSubmits > 0 {
		sort.SliceStable(res.Jobs, func(a, b int) bool { return res.Jobs[a].At < res.Jobs[b].At })
	}
	return res, nil
}

// OpenSWF opens an SWF trace file for reading, transparently decompressing
// when the name ends in ".gz" (archive traces ship gzipped).
func OpenSWF(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return &gzipFile{zr: zr, f: f}, nil
}

// gzipFile closes both the decompressor and the underlying file.
type gzipFile struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipFile) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzipFile) Close() error {
	err := g.zr.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}
