// Package prof wires the conventional -cpuprofile/-memprofile flags into
// the command-line tools, so interpreter and sweep hot spots can be
// inspected with `go tool pprof` on real workloads rather than only on
// the in-tree benchmarks.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler holds the flag values and the open CPU-profile file.
type Profiler struct {
	cpuPath *string
	memPath *string
	cpuFile *os.File
}

// AddFlags registers -cpuprofile and -memprofile on the default flag set.
// Call before flag.Parse.
func AddFlags() *Profiler {
	return &Profiler{
		cpuPath: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		memPath: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling if -cpuprofile was given. Call after
// flag.Parse.
func (p *Profiler) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile if -memprofile was
// given. Call after a successful Start; obs.Flags.Run does, and exits 1
// when it fails.
func (p *Profiler) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		p.cpuFile = nil
	}
	if *p.memPath == "" {
		return nil
	}
	f, err := os.Create(*p.memPath)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}
