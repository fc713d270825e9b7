package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
)

// The workload file format is a line-oriented text format in the spirit of
// the Standard Workload Format (SWF), extended with the job's program:
//
//	# comment
//	<submit_s> <name> <nodes> <limit_s> <priority> sleep <seconds>
//	<submit_s> <name> <nodes> <limit_s> <priority> write <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> read <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> bursty <cycles> <compute_s> <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> phased <n> <program1...> <program2...> ...
//
// A phased program nests n sub-programs back to back (each sub-program has
// a fixed arity, so the encoding is unambiguous). The fingerprint defaults
// to the name. Fields are whitespace-separated.
//
// An optional `bb <gib>` token between the priority and the program
// declares the job's burst-buffer reservation; jobs without it use no
// burst buffer, and decoders predating the token never see it (it is only
// emitted when the demand is non-zero).

// TimedSpec is a job spec with its submission time.
type TimedSpec struct {
	At   des.Time
	Spec slurm.JobSpec
}

// Encode writes timed specs in the workload file format.
func Encode(w io.Writer, jobs []TimedSpec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# wasched workload v1")
	fmt.Fprintln(bw, "# submit_s name nodes limit_s priority program...")
	for i, tj := range jobs {
		prog, err := encodeProgram(tj.Spec.Program)
		if err != nil {
			return fmt.Errorf("workload: job %d (%s): %w", i, tj.Spec.Name, err)
		}
		if tj.Spec.BBBytes > 0 {
			prog = fmt.Sprintf("bb %g %s", tj.Spec.BBBytes/pfs.GiB, prog)
		}
		fmt.Fprintf(bw, "%g %s %d %g %d %s\n",
			tj.At.Seconds(), tj.Spec.Name, tj.Spec.Nodes,
			tj.Spec.Limit.Seconds(), tj.Spec.Priority, prog)
	}
	return bw.Flush()
}

func encodeProgram(p cluster.Program) (string, error) {
	switch prog := p.(type) {
	case cluster.SleepProgram:
		return fmt.Sprintf("sleep %g", prog.D.Seconds()), nil
	case cluster.WriteProgram:
		return fmt.Sprintf("write %d %g", prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.ReadProgram:
		return fmt.Sprintf("read %d %g", prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.BurstyProgram:
		return fmt.Sprintf("bursty %d %g %d %g",
			prog.Cycles, prog.Compute.Seconds(), prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.PhasedProgram:
		parts := []string{fmt.Sprintf("phased %d", len(prog.Phases))}
		for _, ph := range prog.Phases {
			enc, err := encodeProgram(ph)
			if err != nil {
				return "", fmt.Errorf("phased: %w", err)
			}
			parts = append(parts, enc)
		}
		return strings.Join(parts, " "), nil
	default:
		return "", fmt.Errorf("unencodable program type %T", p)
	}
}

// Decode parses a workload file.
func Decode(r io.Reader) ([]TimedSpec, error) {
	var out []TimedSpec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tj, err := decodeLine(line)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		out = append(out, tj)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return out, nil
}

func decodeLine(line string) (TimedSpec, error) {
	f := strings.Fields(line)
	if len(f) < 6 {
		return TimedSpec{}, fmt.Errorf("want at least 6 fields, got %d", len(f))
	}
	submit, ok := seconds(f[0])
	if !ok {
		return TimedSpec{}, fmt.Errorf("bad submit time %q", f[0])
	}
	nodes, err := strconv.Atoi(f[2])
	if err != nil || nodes <= 0 {
		return TimedSpec{}, fmt.Errorf("bad node count %q", f[2])
	}
	limit, ok := seconds(f[3])
	if !ok || limit <= 0 {
		return TimedSpec{}, fmt.Errorf("bad limit %q", f[3])
	}
	prio, err := strconv.ParseInt(f[4], 10, 64)
	if err != nil {
		return TimedSpec{}, fmt.Errorf("bad priority %q", f[4])
	}
	rest := f[5:]
	bbBytes := 0.0
	if rest[0] == "bb" {
		if len(rest) < 3 {
			return TimedSpec{}, fmt.Errorf("bb token needs GiB and a program")
		}
		gib, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || !positiveBytes(gib) {
			return TimedSpec{}, fmt.Errorf("bad bb GiB %q", rest[1])
		}
		bbBytes = gib * pfs.GiB
		rest = rest[2:]
	}
	prog, rest, err := decodeProgram(rest[0], rest[1:])
	if err != nil {
		return TimedSpec{}, err
	}
	if len(rest) != 0 {
		return TimedSpec{}, fmt.Errorf("trailing fields after program: %v", rest)
	}
	return TimedSpec{
		At: des.Time(submit),
		Spec: slurm.JobSpec{
			Name:        f[1],
			Fingerprint: f[1],
			Nodes:       nodes,
			Limit:       limit,
			Priority:    prio,
			Program:     prog,
			BBBytes:     bbBytes,
		},
	}, nil
}

// maxSeconds bounds every time and duration in a workload file (about 31
// years). Below it a microsecond count is exact in a float64 with room to
// spare, so the shortest decimal Encode writes decodes to the same
// microsecond.
const maxSeconds = 1e9

// maxCount bounds thread and cycle counts: past it a count is no workload
// this simulator can run, and an int conversion could wrap.
const maxCount = 1 << 20

// seconds parses a time or duration field: finite, non-negative, at most
// maxSeconds, rounded to the nearest microsecond.
func seconds(s string) (des.Duration, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v <= maxSeconds) {
		return 0, false
	}
	return des.Duration(math.Round(v * float64(des.Second))), true
}

// positiveBytes reports whether gib GiB is a positive, finite byte count.
func positiveBytes(gib float64) bool {
	return gib > 0 && !math.IsInf(gib*pfs.GiB, 0)
}

// decodeProgram parses one program starting at args and returns the
// remaining unconsumed fields, enabling the nested phased encoding.
func decodeProgram(kind string, args []string) (cluster.Program, []string, error) {
	num := func(i int) (float64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("program %q: missing argument %d", kind, i+1)
		}
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("program %q: bad argument %q", kind, args[i])
		}
		return v, nil
	}
	dur := func(i int) (des.Duration, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("program %q: missing argument %d", kind, i+1)
		}
		d, ok := seconds(args[i])
		if !ok {
			return 0, fmt.Errorf("program %q: bad duration %q", kind, args[i])
		}
		return d, nil
	}
	switch kind {
	case "sleep":
		d, err := dur(0)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("sleep needs a positive duration: %v", err)
		}
		return cluster.SleepProgram{D: d}, args[1:], nil
	case "write", "read":
		threads, err := num(0)
		if err != nil || threads < 1 || threads > maxCount {
			return nil, nil, fmt.Errorf("%s needs a thread count: %v", kind, err)
		}
		gib, err := num(1)
		if err != nil || !positiveBytes(gib) {
			return nil, nil, fmt.Errorf("%s needs GiB per thread: %v", kind, err)
		}
		if kind == "read" {
			return cluster.ReadProgram{Threads: int(threads), BytesPerThread: gib * pfs.GiB}, args[2:], nil
		}
		return cluster.WriteProgram{Threads: int(threads), BytesPerThread: gib * pfs.GiB}, args[2:], nil
	case "bursty":
		cycles, err := num(0)
		if err != nil || cycles < 1 || cycles > maxCount {
			return nil, nil, fmt.Errorf("bursty needs cycles: %v", err)
		}
		compute, err := dur(1)
		if err != nil {
			return nil, nil, fmt.Errorf("bursty needs compute seconds: %v", err)
		}
		threads, err := num(2)
		if err != nil || threads < 1 || threads > maxCount {
			return nil, nil, fmt.Errorf("bursty needs threads: %v", err)
		}
		gib, err := num(3)
		if err != nil || !positiveBytes(gib) {
			return nil, nil, fmt.Errorf("bursty needs GiB per thread: %v", err)
		}
		return cluster.BurstyProgram{
			Cycles:         int(cycles),
			Compute:        compute,
			Threads:        int(threads),
			BytesPerThread: gib * pfs.GiB,
		}, args[4:], nil
	case "phased":
		n, err := num(0)
		// Every phase takes at least two fields, so a count past the
		// fields left is malformed, and must not size the phase slice.
		if err != nil || n < 1 || n > float64(len(args)) {
			return nil, nil, fmt.Errorf("phased needs a phase count: %v", err)
		}
		rest := args[1:]
		phases := make([]cluster.Program, 0, int(n))
		for i := 0; i < int(n); i++ {
			if len(rest) == 0 {
				return nil, nil, fmt.Errorf("phased: missing phase %d of %d", i+1, int(n))
			}
			sub, remaining, err := decodeProgram(rest[0], rest[1:])
			if err != nil {
				return nil, nil, fmt.Errorf("phased phase %d: %w", i+1, err)
			}
			phases = append(phases, sub)
			rest = remaining
		}
		return cluster.PhasedProgram{Phases: phases}, rest, nil
	default:
		return nil, nil, fmt.Errorf("unknown program kind %q", kind)
	}
}

// Timed wraps specs with a single submission time (batch submission).
func Timed(specs []slurm.JobSpec, at des.Time) []TimedSpec {
	out := make([]TimedSpec, len(specs))
	for i, s := range specs {
		out[i] = TimedSpec{At: at, Spec: s}
	}
	return out
}
