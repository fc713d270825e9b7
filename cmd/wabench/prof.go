package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the packages a profile is rolled up by. Samples charged to
// any other wasched/internal package go to "other"; "wabench" is this
// benchmark's own code and "runtime" is everything with no project frame
// on its stack (GC workers, the Go scheduler).
var layers = []string{
	"sos", "ldms", "slurm", "analytics", "pfs", "tbf", "des", "cluster",
	"sched", "restrack", "bb", "schedcheck", "workload", "trace", "core",
	"other", "wabench", "runtime",
}

// sample is one stack of a profile with its value, leaf frame first.
type sample struct {
	value int64
	stack []string
}

// pprofTraces runs `go tool pprof -traces` with args and parses its output.
// Go profiles carry their symbols, so pprof needs no binary and no lookup.
func pprofTraces(args ...string) ([]sample, int64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-symbolize=none", "-traces"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads `go tool pprof -traces` text: header lines, then one
// block per sample after each dashed separator. A block opens with any
// label lines, then the sample's value followed by the leaf frame; each
// further line names one caller. Values must be plain integers (-sample_index=samples for a
// CPU profile, alloc_objects for an allocation profile). total is the
// header's "Total samples" count, or -1 when the header has none.
func parseTraces(r io.Reader) (samples []sample, total int64, err error) {
	total = -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBody, newBlock := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody, newBlock = true, true
			continue
		}
		if !inBody {
			if _, rest, ok := strings.Cut(line, "Total samples = "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						total = n
					}
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if newBlock && strings.HasSuffix(f[0], ":") {
			continue // a label line, such as a heap sample's "bytes: 48B"
		}
		if newBlock {
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: want a value and a frame, got %q", line)
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			samples = append(samples, sample{value: v, stack: []string{f[1]}})
			newBlock = false
			continue
		}
		if len(samples) == 0 {
			return nil, 0, fmt.Errorf("pprof traces: frame %q before any sample", line)
		}
		s := &samples[len(samples)-1]
		s.stack = append(s.stack, f[0])
	}
	return samples, total, sc.Err()
}

// layerOf names the layer a stack is charged to: the leaf-most frame
// that is the project's own decides, so runtime and standard-library
// frames (memmove, mallocgc, map access) count for the code that called
// them.
func layerOf(stack []string) string {
	for _, frame := range stack {
		if rest, ok := strings.CutPrefix(frame, "wasched/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(frame, "main.") {
			return "wabench"
		}
	}
	return "runtime"
}

// rollUp sums sample values per layer; every layer is present.
func rollUp(samples []sample) map[string]int64 {
	sums := make(map[string]int64, len(layers))
	for _, l := range layers {
		sums[l] = 0
	}
	for _, s := range samples {
		sums[layerOf(s.stack)] += s.value
	}
	return sums
}
