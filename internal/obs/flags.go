// CLI wiring shared by cmd/palmsim and cmd/cachesweep: AddFlags before
// flag.Parse, then Run, which brackets the command's body with the
// profiler's and the registry's Start and Stop and maps its outcome to
// the exit-code table. Any of -metrics, -progress or -manifest enables
// the registry; with none given Registry() stays nil and every
// instrumentation site in the process remains on its no-op path.
package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"palmsim/internal/simerr"
)

// The exit-code table the commands share.
const (
	ExitOK          = 0
	ExitFailure     = 1
	ExitUsage       = 2
	ExitInterrupted = 3
)

// usageError marks a bad-flag failure for Run's exit-code mapping.
type usageError struct{ error }

// Usage marks err as a bad-flag failure, which Run exits ExitUsage for.
func Usage(err error) error { return usageError{err} }

// IsUsage reports whether err is, or wraps, an error marked by Usage.
func IsUsage(err error) bool { return errors.As(err, new(usageError)) }

// Profiler is the process profiler Run starts before a command's body
// and stops after it; *prof.Profiler is one. Taking the interface keeps
// runtime/pprof out of every package that imports obs.
type Profiler interface {
	Start() error
	Stop() error
}

// Flags holds the observability flag values, the registry and the
// running progress reporter.
type Flags struct {
	metrics  *bool
	progress *time.Duration
	manifest *string

	reg      *Registry
	reporter *Reporter
	man      *Manifest
	out      io.Writer
	status   string
}

// AddFlags registers -metrics, -progress and -manifest on the default
// flag set. Call before flag.Parse.
func AddFlags() *Flags {
	return &Flags{
		metrics:  flag.Bool("metrics", false, "collect runtime metrics and print a snapshot at exit"),
		progress: flag.Duration("progress", 0, "print a progress line at this interval, e.g. 2s (implies -metrics)"),
		manifest: flag.String("manifest", "", "write a JSON run manifest (config, duration, metric snapshot) to this file at exit (implies -metrics)"),
		out:      os.Stderr,
	}
}

// Enabled reports whether any observability flag was set.
func (f *Flags) Enabled() bool {
	return *f.metrics || *f.progress > 0 || *f.manifest != ""
}

// Registry returns the live registry, or nil when observability is
// disabled (the no-op state every instrumented package understands).
func (f *Flags) Registry() *Registry { return f.reg }

// Start creates the registry and the manifest and launches the progress
// reporter if -progress asked for one. Call after flag.Parse; returns
// without side effects when disabled.
func (f *Flags) Start() {
	if !f.Enabled() {
		return
	}
	f.reg = NewRegistry()
	f.man = NewManifest()
	f.reporter = NewReporter(f.reg, f.out, *f.progress)
	f.reporter.Start()
}

// Note forwards to the run manifest (no-op when disabled).
func (f *Flags) Note(key, value string) {
	if f.man != nil {
		f.man.Note(key, value)
	}
}

// SetStatus records how the run ended ("ok", "failed", "interrupted")
// for the manifest written by Stop. Safe to call when disabled.
func (f *Flags) SetStatus(status string) { f.status = status }

// Stop halts the reporter, writes the manifest if requested and prints
// the final snapshot if -metrics was given. Run calls it after Start.
func (f *Flags) Stop() error {
	if f.reg == nil {
		return nil
	}
	f.reporter.Stop()
	if f.status != "" {
		f.man.Status = f.status
	}
	if err := f.reg.Err(); err != nil {
		f.man.Note("obs_error", err.Error())
		fmt.Fprintf(f.out, "obs: metric registration conflict: %v\n", err)
	}
	f.man.Finish(f.reg)
	if *f.manifest != "" {
		if err := f.man.WriteFile(*f.manifest); err != nil {
			return fmt.Errorf("obs: writing manifest: %w", err)
		}
		fmt.Fprintf(f.out, "obs: wrote run manifest to %s\n", *f.manifest)
	}
	if *f.metrics {
		fmt.Fprintln(f.out, "obs: final metric snapshot:")
		for _, s := range f.reg.Snapshot() {
			if s.Kind == "histogram" {
				fmt.Fprintf(f.out, "  %-40s count=%v sum=%d\n", s.Name, s.Value, s.Sum)
				continue
			}
			fmt.Fprintf(f.out, "  %-40s %v\n", s.Name, s.Value)
		}
	}
	return nil
}

// Run is a command's run lifecycle. It starts p and the registry, runs
// body, records how the run ended for the manifest, stops both on every
// path and returns the exit code: ExitOK, ExitInterrupted for a
// cancellation, ExitUsage for an error marked by Usage and ExitFailure
// for any other. Errors print to stderr after "name: ". A profiler that
// fails to start exits ExitUsage before body runs; a Stop that fails
// turns ExitOK into ExitFailure.
func (f *Flags) Run(name string, p Profiler, body func() error) (code int) {
	report := func(err error) { fmt.Fprintf(f.out, "%s: %v\n", name, err) }
	stop := func(err error) {
		if err != nil {
			report(err)
			if code == ExitOK {
				code = ExitFailure
			}
		}
	}
	if err := p.Start(); err != nil {
		report(err)
		return ExitUsage
	}
	defer func() { stop(p.Stop()) }()
	f.Start()
	defer func() { stop(f.Stop()) }()

	err := body()
	switch {
	case err == nil:
		f.SetStatus("ok")
		return ExitOK
	case simerr.IsCanceled(err):
		f.SetStatus("interrupted")
		fmt.Fprintf(f.out, "%s: interrupted: %v\n", name, err)
		return ExitInterrupted
	}
	f.SetStatus("failed")
	report(err)
	if IsUsage(err) {
		return ExitUsage
	}
	return ExitFailure
}
