// Command palmsim drives the full collect-and-replay pipeline from the
// command line: it records one of the built-in sessions on an instrumented
// simulated handheld, writes the initial state and activity log to disk,
// replays them on a second machine, validates both correlations, and
// prints the run statistics — the whole §2+§3 methodology in one go.
// The replay's memory-reference trace goes to -out as one indexed .ptrace
// carrying addresses, access kinds and tick marks (cachesweep -trace
// reads it); -dinero adds a Dinero .din copy.
//
// That trace comes from the validation replay, which runs with the five
// hacks installed, so it holds the hacks' own references too. The case
// study (cachesweep -session, cmd/experiments) replays with the hacks
// out. For session 1 the .ptrace holds 2,903,678 references against the
// case study's 2,846,112, and a sweep over it reads 5.90% misses for
// 1KB/16B/1-way/LRU where cachesweep -session 1 reads 5.88%.
//
// SIGINT/SIGTERM cancel the pipeline at the next tick-sync boundary; the
// run manifest (when -manifest is given) records "status":"interrupted"
// and the process exits with code 3.
//
// Usage:
//
//	palmsim -session 1 -out ./out
//	palmsim -list
//
// Every flag is checked before the session is collected or -out created;
// -dinero and -screenshot need -out, and -dinero and -seek-tick need the
// written trace.
// Exit codes: 0 success, 1 failure, 2 bad usage, 3 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"palmsim"
	"palmsim/internal/dtrace"
	"palmsim/internal/exp"
	"palmsim/internal/m68k"
	"palmsim/internal/obs"
	"palmsim/internal/prof"
	"palmsim/internal/validate"
)

type config struct {
	sessionNum int
	outDir     string
	list       bool
	withTrace  bool
	seekTick   uint
	screenshot bool
	dinero     bool
	dispatch   string
	obsFlags   *obs.Flags
}

func main() {
	c := &config{}
	flag.IntVar(&c.sessionNum, "session", 1, "built-in session number (1-4)")
	flag.StringVar(&c.outDir, "out", "", "directory for state/log/trace artifacts (omit to skip writing)")
	flag.BoolVar(&c.list, "list", false, "list built-in sessions and exit")
	flag.BoolVar(&c.withTrace, "trace", true, "write the replay's memory-reference trace as an indexed .ptrace (with -out)")
	flag.UintVar(&c.seekTick, "seek-tick", 0, "fast-forward replay: emulate untraced until this tick, then start tracing")
	flag.BoolVar(&c.screenshot, "screenshot", false, "write the final display as a PGM image (with -out)")
	flag.BoolVar(&c.dinero, "dinero", false, "also write the trace in Dinero din format (with -out)")
	flag.StringVar(&c.dispatch, "dispatch", "auto",
		"replay CPU engine: auto, spec or legacy (auto is spec, the fast path; legacy is the reference interpreter)")
	profiler := prof.AddFlags()
	c.obsFlags = obs.AddFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(c.obsFlags.Run("palmsim", profiler, func() error { return pipeline(ctx, c) }))
}

func pipeline(ctx context.Context, c *config) error {
	reg := c.obsFlags.Registry()

	sessions := palmsim.PaperSessions()
	if c.list {
		for i, s := range sessions {
			fmt.Printf("%d: %s (seed %d)\n", i+1, s.Name, s.Seed)
		}
		return nil
	}
	if c.sessionNum < 1 || c.sessionNum > len(sessions) {
		return obs.Usage(fmt.Errorf("session %d out of range 1-%d", c.sessionNum, len(sessions)))
	}
	s := sessions[c.sessionNum-1]
	if _, err := m68k.ParseDispatch(c.dispatch); err != nil {
		return obs.Usage(err)
	}
	// The trace is collected only to be written. Its .ptrace carries the
	// access kinds write-policy sweeps need, and a PALMIDX1 footer whose
	// per-block starting ticks come from the tick marks.
	writeTrace := c.outDir != "" && c.withTrace
	switch {
	case c.outDir == "" && (c.dinero || c.screenshot):
		return obs.Usage(fmt.Errorf("-dinero and -screenshot write files and need -out"))
	case c.dinero && !c.withTrace:
		return obs.Usage(fmt.Errorf("-dinero writes the trace, so it cannot go with -trace=false"))
	case c.seekTick > 0 && !writeTrace:
		return obs.Usage(fmt.Errorf("-seek-tick fast-forwards the written trace, so it needs -out and the trace"))
	}

	fmt.Printf("collecting %s on the instrumented device...\n", s.Name)
	col, err := palmsim.CollectObserved(ctx, s, reg)
	if err != nil {
		return err
	}
	fmt.Printf("  %d activity log records over %s\n",
		col.Log.Len(), palmsim.FormatElapsed(col.Stats.ElapsedSeconds))
	fmt.Printf("  collection: %s\n", col.Stats.Bus.String())

	fmt.Println("replaying on a fresh machine (hacks installed for validation)...")
	if c.seekTick > 0 {
		fmt.Printf("  fast-forward: tracing starts at tick %d\n", c.seekTick)
	}
	pb, err := palmsim.Replay(ctx, col.Initial, col.Log, palmsim.ReplayOptions{
		Profiling:    true,
		WithHacks:    true,
		CollectTrace: writeTrace,
		CollectKinds: writeTrace,
		CollectTicks: writeTrace,
		SeekTick:     uint32(c.seekTick),
		// With metrics on, the opcode histogram feeds the per-group
		// m68k.group.* func metrics.
		CountOpcodes: reg != nil,
		Obs:          reg,
		Dispatch:     c.dispatch,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  replay: %s\n", pb.Stats.Bus.String())
	fmt.Printf("  instructions executed: %d (%.1f%% of emulated time dozing)\n",
		pb.Stats.Machine.Instructions,
		100*float64(pb.Stats.Machine.SkippedCycles)/
			float64(pb.Stats.Machine.SkippedCycles+pb.Stats.Machine.ActiveCycles))

	logRep := validate.CorrelateLogs(col.Log, pb.Log)
	fmt.Printf("  log correlation (§3.3): %s -> %v\n", logRep, okStr(logRep.OK()))
	stRep := validate.CorrelateStates(col.Final, pb.Final)
	fmt.Printf("  state correlation (§3.4): %s -> %v\n", stRep, okStr(stRep.OK()))
	c.obsFlags.Note("session", s.Name)
	c.obsFlags.Note("log_records", fmt.Sprint(col.Log.Len()))
	c.obsFlags.Note("log_correlation", okStr(logRep.OK()))
	c.obsFlags.Note("state_correlation", okStr(stRep.OK()))

	if c.outDir != "" {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return err
		}
		write := func(name string, data []byte) error {
			path := filepath.Join(c.outDir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("  wrote %s (%d bytes)\n", path, len(data))
			return nil
		}
		if err := write(s.Name+".initial.palmstate", col.Initial.Marshal()); err != nil {
			return err
		}
		if err := write(s.Name+".final.palmstate", col.Final.Marshal()); err != nil {
			return err
		}
		if err := write(s.Name+".palmlog", col.Log.Marshal()); err != nil {
			return err
		}
		if writeTrace {
			packed, err := dtrace.PackTraceIndexed(pb.Trace, pb.TraceKinds, pb.TraceTicks)
			if err != nil {
				return err
			}
			if err := write(s.Name+".ptrace", packed); err != nil {
				return err
			}
			c.obsFlags.Note("trace_packed_bytes", fmt.Sprint(len(packed)))
			// Against the 4 bytes/ref plus 12-byte header of an
			// address-only array.
			c.obsFlags.Note("trace_packed_vs_raw",
				fmt.Sprintf("%.2f", float64(4*len(pb.Trace)+12)/float64(len(packed))))
		}
		if c.screenshot {
			if err := write(s.Name+".pgm", pb.M.ScreenPGM()); err != nil {
				return err
			}
		}
		if c.dinero {
			din, err := exp.MarshalDinero(pb.Trace, pb.TraceKinds)
			if err != nil {
				return err
			}
			if err := write(s.Name+".din", din); err != nil {
				return err
			}
		}
	}
	return nil
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}
