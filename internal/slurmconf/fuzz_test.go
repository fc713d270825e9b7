package slurmconf

import (
	"bytes"
	"testing"

	"wasched/internal/core"
)

// FuzzParse holds slurm.conf parsing to its contract: a file either fails
// to parse or yields a configuration core.NewSystem accepts or rejects
// with an error, never with a panic.
func FuzzParse(f *testing.F) {
	f.Add([]byte("ClusterName=stria\nNodes=16\nSeed=42\nSchedulerPolicy=adaptive\nThroughputLimit=20GiB\n"))
	f.Add([]byte("SchedulerParameters=bf_interval=15,bf_max_job_test=50,bf_max_job_start=1\nTwoGroupQoSFraction=0.6\n"))
	f.Add([]byte("PFSVolumes=28\nPFSVolumeBandwidth=0.5GiB\nPFSStreamCap=512MiB\nPFSCongestionKnee=30\nPFSNoiseSigma=0.1\n"))
	f.Add([]byte("SampleInterval=NaN\nAggregateInterval=0\nThroughputWindow=1e300\nLDMSRetention=Inf\n"))
	f.Add([]byte("PriorityWeightAge=10\nPriorityDecayHalfLife=604800\nPreemptMode=requeue\nPreemptExemptTime=1800\nRateQuantile=0.9\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Building allocates per node and per volume; a file asking for
		// more than a test machine should build is a size, not a parse,
		// question.
		if cfg.Nodes > 256 || cfg.FS.Volumes > 1024 {
			return
		}
		sys, err := core.NewSystem(cfg)
		if err == nil && sys == nil {
			t.Fatal("NewSystem returned neither a system nor an error")
		}
	})
}
