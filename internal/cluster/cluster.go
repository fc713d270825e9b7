// Package cluster models the compute side of an HPC system: a fixed pool
// of nodes on which job programs execute, with their I/O flowing through
// the parallel file system model (internal/pfs).
//
// The package corresponds to the paper's 15 compute nodes of the Stria
// cluster. It deliberately knows nothing about queues or scheduling policy;
// the controller (internal/slurm) decides when to start jobs, and this
// package runs them.
package cluster

import (
	"fmt"
	"sort"

	"wasched/internal/des"
	"wasched/internal/pfs"
)

// Context carries the simulated environment a program runs against.
type Context struct {
	Eng *des.Engine
	FS  *pfs.FileSystem
	RNG *des.RNG // per-job stream; derived from the experiment seed and job ID
}

// Program is the behaviour of a job once started: it performs its
// simulated work on the given nodes and calls done exactly once when it
// exits on its own. Start returns a stop function used to kill the job
// (e.g. on time-limit expiry); after stop, done must not be called.
type Program interface {
	Start(ctx *Context, nodes []string, done func()) (stop func())
}

// ExitKind records how an execution ended.
type ExitKind int

// Execution exit kinds.
const (
	ExitCompleted ExitKind = iota // the program finished its work
	ExitKilled                    // the controller killed it (time limit)
)

// String returns "completed" or "killed".
func (k ExitKind) String() string {
	if k == ExitKilled {
		return "killed"
	}
	return "completed"
}

// Execution is one running (or finished) job instance on the cluster.
type Execution struct {
	JobID     string
	Nodes     []string
	StartedAt des.Time
	EndedAt   des.Time
	Exit      ExitKind
	ended     bool
	stop      func()
	onExit    func(*Execution)
}

// Ended reports whether the execution has finished (either way).
func (e *Execution) Ended() bool { return e.ended }

// Cluster is the node pool.
type Cluster struct {
	eng     *des.Engine
	fs      *pfs.FileSystem
	nodes   []string
	free    []string // stack of free node names (deterministic reuse order)
	running map[string]*Execution
	seed    uint64
}

// New creates a cluster of n nodes named prefix1..prefixN. The seed is the
// experiment seed from which per-job RNG streams are derived.
func New(eng *des.Engine, fs *pfs.FileSystem, n int, prefix string, seed uint64) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", n)
	}
	if prefix == "" {
		prefix = "node"
	}
	c := &Cluster{
		eng:     eng,
		fs:      fs,
		running: make(map[string]*Execution),
		seed:    seed,
	}
	for i := n; i >= 1; i-- {
		name := fmt.Sprintf("%s%03d", prefix, i)
		c.nodes = append(c.nodes, name)
		c.free = append(c.free, name)
	}
	sort.Strings(c.nodes)
	return c, nil
}

// Size returns the total node count (the paper's N).
func (c *Cluster) Size() int { return len(c.nodes) }

// FreeNodes returns the number of currently unallocated nodes.
func (c *Cluster) FreeNodes() int { return len(c.free) }

// BusyNodes returns the number of allocated (running-job) nodes.
func (c *Cluster) BusyNodes() int { return len(c.nodes) - len(c.free) }

// NodeNames returns all node names in sorted order.
func (c *Cluster) NodeNames() []string {
	out := make([]string, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// FS returns the attached file system model.
func (c *Cluster) FS() *pfs.FileSystem { return c.fs }

// Running returns the execution for a job ID, if the job is running.
func (c *Cluster) Running(jobID string) (*Execution, bool) {
	e, ok := c.running[jobID]
	return e, ok
}

// RunningCount returns the number of executing jobs.
func (c *Cluster) RunningCount() int { return len(c.running) }

// Start allocates n nodes and launches the program. onExit is invoked
// exactly once when the program completes or is killed; it may submit new
// work. Start fails when not enough nodes are free or the job ID is
// already running.
func (c *Cluster) Start(jobID string, n int, prog Program, onExit func(*Execution)) (*Execution, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: job %s requests %d nodes", jobID, n)
	}
	if n > len(c.free) {
		return nil, fmt.Errorf("cluster: job %s requests %d nodes, only %d free", jobID, n, len(c.free))
	}
	if _, dup := c.running[jobID]; dup {
		return nil, fmt.Errorf("cluster: job %s is already running", jobID)
	}
	nodes := make([]string, n)
	for i := 0; i < n; i++ {
		nodes[i] = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	}
	e := &Execution{JobID: jobID, Nodes: nodes, StartedAt: c.eng.Now(), onExit: onExit}
	c.running[jobID] = e
	ctx := &Context{Eng: c.eng, FS: c.fs, RNG: des.NewRNG(c.seed, "job/"+jobID)}
	e.stop = prog.Start(ctx, nodes, func() {
		c.finish(e, ExitCompleted)
	})
	return e, nil
}

// Kill terminates a running job (the controller's time-limit enforcement).
// The execution's onExit callback still fires, with Exit set to ExitKilled.
// Killing an unknown or finished job returns false.
func (c *Cluster) Kill(jobID string) bool {
	e, ok := c.running[jobID]
	if !ok {
		return false
	}
	if e.stop != nil {
		e.stop()
	}
	c.finish(e, ExitKilled)
	return true
}

func (c *Cluster) finish(e *Execution, kind ExitKind) {
	if e.ended {
		return
	}
	e.ended = true
	e.Exit = kind
	e.EndedAt = c.eng.Now()
	delete(c.running, e.JobID)
	c.free = append(c.free, e.Nodes...)
	if e.onExit != nil {
		e.onExit(e)
	}
}
