// Package profiling gives the commands their -cpuprofile and -memprofile
// flags: Go pprof CPU and allocation profiles of a whole run for `go tool
// pprof`, e.g.
//
//	wasched replay trace.swf -policy adaptive -cpuprofile replay.cpu
//	go tool pprof -top replay.cpu
//
// Profiling only observes the process; every simulated output stays the
// same with or without it.
package profiling

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; empty means that profile is off.
type Flags struct {
	CPU, Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a pprof allocation profile of the run to this file")
	return f
}

// Start starts the CPU profile, if asked for, and returns stop, which ends
// it and writes the allocation profile, if asked for. stop returns the
// first error; callers defer it around the whole run.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			//waschedlint:allow checkederr the start error takes precedence; the profile is already known-bad
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if f.Mem != "" {
			runtime.GC() // flush the allocations of the last cycle into the profile
			if werr := writeAllocs(f.Mem); err == nil {
				err = werr
			}
		}
		return err
	}, nil
}

func writeAllocs(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(w, 0); err != nil {
		//waschedlint:allow checkederr the write error takes precedence; the file is already known-bad
		w.Close()
		return err
	}
	return w.Close()
}
