package schedcheck

import (
	"io"
	"strconv"
	"strings"

	"wasched/internal/des"
	"wasched/internal/workload"
)

// SimJobsFromSWF converts parsed SWF records into lightweight replay jobs
// for Replay. It runs workload.EachSWFJob, the record loop ConvertSWF
// runs, so the jobs that carry synthetic I/O here are the very jobs that
// would carry it in the full prototype. The replay has no file-system
// model, so an I/O job's rate is its write volume averaged over its runtime
// (IOShare·IORate for an isolated job).
func SimJobsFromSWF(records []workload.SWFRecord, opts workload.SWFOptions) ([]SimJob, workload.SWFQuirks, error) {
	jobs := make([]SimJob, 0, len(records))
	// Archive job numbers are unique in theory; malformed traces repeat
	// them, and replay identity (queue order, the starts map) needs unique
	// IDs: the n-th job of a number is "swf-<number>.<n>". Numbers rise
	// through a well-formed trace, so the jobs per number are counted only
	// from the first one that does not rise.
	var (
		last int64 // the last job number, while every number rose
		seen map[int64]int
	)
	quirks, err := workload.EachSWFJob(records, opts, func(rec *workload.SWFRecord, sj workload.SWFJob) {
		n := 1
		if seen == nil && (len(jobs) == 0 || rec.JobNo > last) {
			last = rec.JobNo
		} else {
			if seen == nil {
				seen = jobNumbers(jobs)
			}
			n = seen[rec.JobNo] + 1
			seen[rec.JobNo] = n
		}
		var buf [32]byte
		id := strconv.AppendInt(append(buf[:0], "swf-"...), rec.JobNo, 10)
		if n > 1 {
			id = strconv.AppendInt(append(id, '.'), int64(n), 10)
		}
		j := SimJob{
			ID:          string(id),
			Fingerprint: sj.Fingerprint,
			Nodes:       sj.Nodes,
			Limit:       des.FromSeconds(sj.Limit),
			Actual:      des.FromSeconds(sj.Runtime),
			Submit:      des.TimeFromSeconds(rec.Submit),
			BBBytes:     sj.BBBytes,
		}
		if sj.DoesIO {
			j.Rate = sj.Bytes / sj.Runtime
			j.EstRate = j.Rate
		}
		jobs = append(jobs, j)
	})
	if err != nil {
		return nil, workload.SWFQuirks{}, err
	}
	return jobs, quirks, nil
}

// jobNumbers counts the jobs per job number, for jobs named "swf-<number>"
// with numbers that never repeat.
func jobNumbers(jobs []SimJob) map[int64]int {
	seen := make(map[int64]int, len(jobs))
	for _, j := range jobs {
		no, err := strconv.ParseInt(strings.TrimPrefix(j.ID, "swf-"), 10, 64)
		if err != nil {
			panic("schedcheck: unnumbered SWF job " + j.ID)
		}
		seen[no] = 1
	}
	return seen
}

// LoadSWFSimJobs reads an SWF trace and converts it for Replay, merging
// the row-level quirks into the conversion's.
func LoadSWFSimJobs(r io.Reader, opts workload.SWFOptions) ([]SimJob, workload.SWFQuirks, error) {
	records, quirks, err := workload.ParseSWFRecords(r)
	if err != nil {
		return nil, quirks, err
	}
	jobs, conv, err := SimJobsFromSWF(records, opts)
	if err != nil {
		return nil, quirks, err
	}
	quirks.TooWide += conv.TooWide
	return jobs, quirks, nil
}
