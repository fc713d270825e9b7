// Package slurmconf parses a slurm.conf-style configuration file into the
// library's core.Config. The prototype's real deployment configures Slurm
// through slurm.conf (SchedulerType, SchedulerParameters, Licenses, ...);
// this package accepts the same shape of file so operators can carry their
// configuration habits over to the simulator:
//
//	# comment
//	ClusterName=stria
//	Nodes=15
//	Seed=42
//	SchedulerPolicy=adaptive          # a sched.PolicyNames entry, or ioaware|adaptivenaive
//	ThroughputLimit=20GiB             # bytes/s; accepts GiB/MiB suffixes
//	SchedulerParameters=bf_interval=30,bf_max_job_test=100,bf_max_job_start=0
//	TwoGroupQoSFraction=0.5
//	# multifactor priority (all four keys optional; any one enables it)
//	PriorityWeightAge=10
//	PriorityWeightJobSize=1
//	PriorityWeightFairshare=100
//	PriorityDecayHalfLife=604800
//	# preemption and robustness
//	PreemptMode=requeue               # off|requeue
//	PreemptExemptTime=1800            # starvation threshold, seconds
//	PreemptPriorityGap=50
//	RateQuantile=0.9                  # conservative estimates (0 = EWMA)
//	LDMSRetention=7200                # metric store retention, seconds
//	# file-system calibration overrides
//	PFSVolumes=56
//	PFSVolumeBandwidth=0.40GiB
//	PFSServerCap=20GiB
//	PFSNoiseSigma=0.16
//	# monitoring
//	SampleInterval=1
//	AggregateInterval=1
//
// Keys are case-insensitive, '=' separated, one per line; '#' starts a
// comment. Unknown keys are an error (catching typos beats ignoring them).
package slurmconf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
)

// Parse reads a configuration file and applies it on top of
// core.DefaultConfig.
func Parse(r io.Reader) (core.Config, error) {
	cfg := core.DefaultConfig()
	var prio priorityKeys
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return cfg, fmt.Errorf("slurmconf: line %d: expected key=value, got %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if err := apply(&cfg, &prio, key, value); err != nil {
			return cfg, fmt.Errorf("slurmconf: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, fmt.Errorf("slurmconf: read: %w", err)
	}
	if prio.set {
		plugin, err := slurm.NewMultifactorPriority(prio.age, prio.size, prio.fairshare, prio.halfLife)
		if err != nil {
			return cfg, fmt.Errorf("slurmconf: priority: %w", err)
		}
		cfg.Control.Priority = plugin
	}
	return cfg, nil
}

// priorityKeys accumulates the multifactor priority keys; any one of them
// enables the plugin.
type priorityKeys struct {
	set       bool
	age       float64
	size      float64
	fairshare float64
	halfLife  des.Duration
}

func apply(cfg *core.Config, prio *priorityKeys, key, value string) error {
	switch strings.ToLower(key) {
	case "priorityweightage":
		f, err := parseFinite(value)
		if err != nil || f < 0 {
			return fmt.Errorf("PriorityWeightAge: %q", value)
		}
		prio.set, prio.age = true, f
	case "priorityweightjobsize":
		f, err := parseFinite(value)
		if err != nil || f < 0 {
			return fmt.Errorf("PriorityWeightJobSize: %q", value)
		}
		prio.set, prio.size = true, f
	case "priorityweightfairshare":
		f, err := parseFinite(value)
		if err != nil || f < 0 {
			return fmt.Errorf("PriorityWeightFairshare: %q", value)
		}
		prio.set, prio.fairshare = true, f
	case "prioritydecayhalflife":
		d, err := parseSeconds(value)
		if err != nil || d <= 0 {
			return fmt.Errorf("PriorityDecayHalfLife: %q", value)
		}
		prio.set, prio.halfLife = true, d
	case "preemptmode":
		switch strings.ToLower(value) {
		case "off":
			cfg.Control.Preemption.Enabled = false
		case "requeue":
			cfg.Control.Preemption.Enabled = true
		default:
			return fmt.Errorf("PreemptMode: want off or requeue, got %q", value)
		}
	case "preemptexempttime":
		d, err := parseSeconds(value)
		if err != nil || d <= 0 {
			return fmt.Errorf("PreemptExemptTime: %q", value)
		}
		cfg.Control.Preemption.MaxStarvation = d
	case "preemptprioritygap":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("PreemptPriorityGap: %q", value)
		}
		cfg.Control.Preemption.PriorityGap = n
	case "ratequantile":
		f, err := parseFinite(value)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("RateQuantile: want 0..1, got %q", value)
		}
		cfg.Control.RateQuantile = f
	case "ldmsretention":
		d, err := parseSeconds(value)
		if err != nil {
			return fmt.Errorf("LDMSRetention: %q", value)
		}
		cfg.Monitor.Retention = d
	case "clustername":
		// Cosmetic; accepted for slurm.conf compatibility.
		return nil
	case "nodes":
		n, err := strconv.Atoi(value)
		if err != nil || n <= 0 {
			return fmt.Errorf("Nodes: want a positive integer, got %q", value)
		}
		cfg.Nodes = n
	case "seed":
		s, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("Seed: %q", value)
		}
		cfg.Seed = s
	case "schedulerpolicy":
		spec, err := sched.LookupPolicy(value)
		if err != nil {
			return fmt.Errorf("SchedulerPolicy: %w", err)
		}
		cfg.Scheduler.Policy = spec.Name
	case "throughputlimit":
		v, err := parseBytes(value)
		if err != nil {
			return fmt.Errorf("ThroughputLimit: %w", err)
		}
		cfg.Scheduler.ThroughputLimit = v
	case "twogroupqosfraction":
		f, err := parseFinite(value)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("TwoGroupQoSFraction: want 0..1, got %q", value)
		}
		cfg.Scheduler.QoSFraction = f
	case "schedulerparameters":
		return applySchedulerParameters(cfg, value)
	case "pfsvolumes":
		n, err := strconv.Atoi(value)
		if err != nil || n <= 0 {
			return fmt.Errorf("PFSVolumes: %q", value)
		}
		cfg.FS.Volumes = n
	case "pfsvolumebandwidth":
		v, err := parseBytes(value)
		if err != nil {
			return fmt.Errorf("PFSVolumeBandwidth: %w", err)
		}
		cfg.FS.VolumeBandwidth = v
	case "pfsstreamcap":
		v, err := parseBytes(value)
		if err != nil {
			return fmt.Errorf("PFSStreamCap: %w", err)
		}
		cfg.FS.StreamCap = v
	case "pfsservercap":
		v, err := parseBytes(value)
		if err != nil {
			return fmt.Errorf("PFSServerCap: %w", err)
		}
		cfg.FS.ServerCap = v
	case "pfscongestionknee":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("PFSCongestionKnee: %q", value)
		}
		cfg.FS.CongestionKnee = n
	case "pfscongestionperstream":
		f, err := parseFinite(value)
		if err != nil || f < 0 {
			return fmt.Errorf("PFSCongestionPerStream: %q", value)
		}
		cfg.FS.CongestionPerStream = f
	case "pfsnoisesigma":
		f, err := parseFinite(value)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("PFSNoiseSigma: %q", value)
		}
		cfg.FS.NoiseSigma = f
	case "sampleinterval":
		d, err := parseSeconds(value)
		if err != nil {
			return fmt.Errorf("SampleInterval: %w", err)
		}
		cfg.Monitor.SampleInterval = d
	case "aggregateinterval":
		d, err := parseSeconds(value)
		if err != nil {
			return fmt.Errorf("AggregateInterval: %w", err)
		}
		cfg.Monitor.AggregateInterval = d
	case "throughputwindow":
		d, err := parseSeconds(value)
		if err != nil {
			return fmt.Errorf("ThroughputWindow: %w", err)
		}
		cfg.Analytics.ThroughputWindow = d
	case "estimatoralpha":
		f, err := parseFinite(value)
		if err != nil || f <= 0 || f > 1 {
			return fmt.Errorf("EstimatorAlpha: %q", value)
		}
		cfg.Analytics.Alpha = f
	case "usedeclaredrates":
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("UseDeclaredRates: %q", value)
		}
		cfg.Control.UseDeclaredRates = b
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// applySchedulerParameters parses the Slurm-style comma-separated list:
// bf_interval=<s>, bf_max_job_test=<n>, bf_max_job_start=<n> (our
// BackfillMax; 0 = unlimited).
func applySchedulerParameters(cfg *core.Config, value string) error {
	for _, part := range strings.Split(value, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("SchedulerParameters: expected k=v, got %q", part)
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "bf_interval":
			d, err := parseSeconds(strings.TrimSpace(v))
			if err != nil || d <= 0 {
				return fmt.Errorf("bf_interval: %q", v)
			}
			cfg.Control.SchedInterval = d
		case "bf_max_job_test":
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 0 {
				return fmt.Errorf("bf_max_job_test: %q", v)
			}
			cfg.Control.Options.MaxJobTest = n
		case "bf_max_job_start":
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 0 {
				return fmt.Errorf("bf_max_job_start: %q", v)
			}
			cfg.Control.Options.BackfillMax = n
		default:
			return fmt.Errorf("SchedulerParameters: unknown parameter %q", k)
		}
	}
	return nil
}

// maxSeconds bounds a duration key (about 31 years); past it the
// microsecond conversion would lose precision and then overflow.
const maxSeconds = 1e9

// parseBytes parses "20GiB", "450MiB", "1073741824" into bytes (per
// second, in the contexts this package uses it).
func parseBytes(s string) (float64, error) {
	mult := 1.0
	lower := strings.ToLower(s)
	switch {
	case strings.HasSuffix(lower, "gib"):
		mult = pfs.GiB
		s = s[:len(s)-3]
	case strings.HasSuffix(lower, "mib"):
		mult = 1 << 20
		s = s[:len(s)-3]
	case strings.HasSuffix(lower, "kib"):
		mult = 1 << 10
		s = s[:len(s)-3]
	}
	f, err := parseFinite(strings.TrimSpace(s))
	if err != nil || f < 0 || math.IsInf(f*mult, 0) {
		return 0, fmt.Errorf("want a byte quantity (e.g. 20GiB), got %q", s)
	}
	return f * mult, nil
}

// parseSeconds parses a duration given in (possibly fractional) seconds,
// at most maxSeconds.
func parseSeconds(s string) (des.Duration, error) {
	f, err := parseFinite(s)
	if err != nil || f < 0 || f > maxSeconds {
		return 0, fmt.Errorf("want seconds, got %q", s)
	}
	return des.FromSeconds(f), nil
}

// parseFinite parses a number and rejects NaN and ±Inf, which would slip
// through every range check above.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("not a finite number: %q", s)
	}
	return f, err
}
