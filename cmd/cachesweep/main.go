// Command cachesweep runs the §4 cache case study over a memory-reference
// trace: either a .trace file produced by cmd/palmsim (raw or packed,
// told apart by the file's magic), a din-format file, a fresh replay of a
// built-in session, or the synthetic desktop trace (Figure 7). All
// configurations are simulated by the internal/sweep engine, on -workers
// workers; file and desktop traces are streamed, so memory use is
// independent of trace length, and every file a sweep opens is closed
// when it ends.
//
// SIGINT/SIGTERM cancel the sweep at the next chunk boundary: the run
// manifest (when -manifest is given) is still written, with
// "status":"interrupted", and the process exits with code 3. With
// -checkpoint the interrupted sweep's aggregation state is saved to a
// sidecar file; re-running with -resume picks up where it stopped and
// produces results bit-identical to an uninterrupted run.
//
// Usage:
//
//	cachesweep -session 1
//	cachesweep -trace out/session1.trace -workers 8
//	cachesweep -trace out/session1.ptrace             (packed, auto-detected)
//	cachesweep -desktop
//	cachesweep -desktop -refs 500000000 -checkpoint sweep.ckpt
//	cachesweep -desktop -refs 500000000 -checkpoint sweep.ckpt -resume
//	cachesweep -session 1 -algo direct                (per-config simulation)
//	cachesweep -session 1 -crossvalidate              (stack vs direct diff)
//	cachesweep -session 1 -policy FIFO    (ablation beyond the paper)
//	cachesweep -session 1 -policies LRU,FIFO,PLRU,OPT (policy grid)
//	cachesweep -session 1 -write-policy back -pareto  (write-back energy front)
//	cachesweep -session 1 -l2-sizes 32,64             (L1 grid × L2 hierarchy sweep)
//	cachesweep -desktop -l2-sizes 64 -hierarchy inclusive -plan  (dry-run plan)
//
// -l2-sizes turns the configuration sweep into a two-level hierarchy
// sweep: every L1 grid point is paired with every L2 candidate
// (-l2-sizes KB × -l2-assoc ways, -l2-line bytes or the L1's line when
// 0), under the -hierarchy content policy (nine = non-inclusive,
// inclusive, or exclusive). Non-inclusive stack sweeps share each L1:
// it is simulated once and its filtered miss stream fanned out to every
// candidate L2. -plan prints the resolved engine plan — units, shared-L1
// groups, fused hierarchies, fallbacks — and exits without simulating.
//
// Every sweep reads its trace once, in order, through one streaming
// source; OPT (Belady's optimal) alone buffers the whole trace, for its
// backward next-use pass. -write-policy needs a kind-carrying trace (a
// session replay, a din file, or a packed trace recorded with kinds) and
// is rejected with a clear error on address-only traces.
//
// Exit codes: 0 success, 1 failure, 2 bad usage, 3 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/energy"
	"palmsim/internal/exp"
	"palmsim/internal/obs"
	"palmsim/internal/prof"
	"palmsim/internal/report"
	"palmsim/internal/simerr"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

const (
	exitOK          = 0
	exitFailure     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	traceFile := flag.String("trace", "", "trace file (from palmsim -out), raw or packed")
	dinFile := flag.String("din", "", "Dinero din-format trace file")
	sessionNum := flag.Int("session", 0, "replay built-in session (1-4) to obtain the trace")
	desktop := flag.Bool("desktop", false, "use the synthetic desktop trace (Figure 7)")
	refs := flag.Int("refs", 0, "override the synthetic desktop trace length (references; 0 = default)")
	policy := flag.String("policy", "LRU", "replacement policy: LRU, FIFO, Random, PLRU or OPT")
	policies := flag.String("policies", "", "comma-separated policy list; sweeps the paper grid once per policy (overrides -policy)")
	writePolicy := flag.String("write-policy", "", "write policy: ignore (default), through or back; requires a kind-carrying trace")
	l2Sizes := flag.String("l2-sizes", "", "comma-separated L2 sizes in KB; pairs every L1 grid point with every L2 candidate (hierarchy sweep)")
	l2Line := flag.Int("l2-line", 0, "L2 line size in bytes (0 = match each L1's line size)")
	l2Assoc := flag.String("l2-assoc", "4", "comma-separated L2 associativities")
	hierarchy := flag.String("hierarchy", "nine", "multi-level content policy: nine (non-inclusive), inclusive or exclusive")
	planOnly := flag.Bool("plan", false, "print the resolved sweep plan and exit without simulating")
	pareto := flag.Bool("pareto", false, "print the energy/latency Pareto front over all swept configurations")
	algo := flag.String("algo", "auto", "sweep engine: auto, direct or stack")
	crossValidate := flag.Bool("crossvalidate", false, "run both engines over the trace and verify bit-identical results")
	workers := flag.Int("workers", 0, "concurrent sweep workers (0 = one per core, 1 = serial)")
	chunk := flag.Int("chunk", 0, "references per streamed chunk (0 = default)")
	checkpoint := flag.String("checkpoint", "", "checkpoint sidecar file: saved periodically and on interrupt")
	checkpointEvery := flag.Int("checkpoint-every", 0, "chunks between checkpoint saves (0 = default)")
	resume := flag.Bool("resume", false, "resume from an existing -checkpoint sidecar")
	profiler := prof.AddFlags()
	obsFlags := obs.AddFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, &config{
		traceFile:       *traceFile,
		dinFile:         *dinFile,
		sessionNum:      *sessionNum,
		desktop:         *desktop,
		refs:            *refs,
		policy:          *policy,
		policies:        *policies,
		writePolicy:     *writePolicy,
		l2Sizes:         *l2Sizes,
		l2Line:          *l2Line,
		l2Assoc:         *l2Assoc,
		hierarchy:       *hierarchy,
		planOnly:        *planOnly,
		pareto:          *pareto,
		algo:            *algo,
		crossValidate:   *crossValidate,
		workers:         *workers,
		chunk:           *chunk,
		checkpoint:      *checkpoint,
		checkpointEvery: *checkpointEvery,
		resume:          *resume,
		profiler:        profiler,
		obsFlags:        obsFlags,
	}))
}

type config struct {
	traceFile, dinFile               string
	sessionNum, refs, workers, chunk int
	desktop, crossValidate, resume   bool
	policy, policies, algo           string
	writePolicy, checkpoint          string
	l2Sizes, l2Assoc, hierarchy      string
	l2Line                           int
	planOnly, pareto                 bool
	checkpointEvery                  int
	profiler                         *prof.Profiler
	obsFlags                         *obs.Flags
}

// run executes the sweep and maps the outcome to an exit code, making
// sure the profiler and the obs manifest are flushed on every path —
// including cancellation, where the manifest records "interrupted".
func run(ctx context.Context, c *config) (code int) {
	if err := c.profiler.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesweep:", err)
		return exitUsage
	}
	defer c.profiler.Stop()
	if err := c.obsFlags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesweep:", err)
		return exitUsage
	}
	defer func() {
		if err := c.obsFlags.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "cachesweep:", err)
			if code == exitOK {
				code = exitFailure
			}
		}
	}()

	err := sweepMain(ctx, c)
	switch {
	case err == nil:
		c.obsFlags.SetStatus("ok")
		return exitOK
	case simerr.IsCanceled(err):
		c.obsFlags.SetStatus("interrupted")
		fmt.Fprintln(os.Stderr, "cachesweep: interrupted:", err)
		return exitInterrupted
	case isUsage(err):
		c.obsFlags.SetStatus("failed")
		fmt.Fprintln(os.Stderr, "cachesweep:", err)
		return exitUsage
	default:
		c.obsFlags.SetStatus("failed")
		fmt.Fprintln(os.Stderr, "cachesweep:", err)
		return exitFailure
	}
}

// usageError marks a bad-flag failure for the exit-code mapping.
type usageError struct{ error }

func isUsage(err error) bool {
	_, ok := err.(usageError)
	return ok
}

func sweepMain(ctx context.Context, c *config) error {
	reg := c.obsFlags.Registry()

	polNames := []string{c.policy}
	if c.policies != "" {
		polNames = strings.Split(c.policies, ",")
	}
	var pols []cache.Policy
	for _, name := range polNames {
		p, err := cache.ParsePolicy(strings.TrimSpace(name))
		if err != nil {
			return usageError{err}
		}
		pols = append(pols, p)
	}
	wp, err := cache.ParseWritePolicy(c.writePolicy)
	if err != nil {
		return usageError{err}
	}

	var eng sweep.Engine
	switch strings.ToLower(c.algo) {
	case "auto":
		eng = sweep.EngineAuto
	case "direct":
		eng = sweep.EngineDirect
	case "stack":
		eng = sweep.EngineStack
	default:
		return usageError{fmt.Errorf("unknown engine %q (want auto, direct or stack)", c.algo)}
	}

	// newSource opens a fresh pass over the selected trace; the
	// cross-validation mode needs two.
	var newSource openFunc
	switch {
	case c.dinFile != "":
		newSource = func() (sweep.Source, io.Closer, error) {
			f, err := os.Open(c.dinFile)
			if err != nil {
				return nil, nil, err
			}
			return attachSourceObs(exp.NewDineroSource(f), reg), f, nil
		}
		fmt.Printf("streaming din references from %s\n", c.dinFile)
	case c.traceFile != "":
		newSource = func() (sweep.Source, io.Closer, error) {
			src, f, err := openTraceFile(c.traceFile)
			if err != nil {
				return nil, nil, err
			}
			return attachSourceObs(src, reg), f, nil
		}
		src, f, err := newSource()
		if err != nil {
			return err
		}
		f.Close()
		if ts, ok := src.(*exp.TraceSource); ok {
			fmt.Printf("streaming %d raw references from %s\n", ts.Refs(), c.traceFile)
		} else {
			fmt.Printf("streaming packed references from %s\n", c.traceFile)
		}
	case c.desktop:
		cfg := dtrace.DefaultConfig()
		if c.refs > 0 {
			cfg.Refs = c.refs
		}
		newSource = func() (sweep.Source, io.Closer, error) { return dtrace.NewStream(cfg), nil, nil }
		fmt.Printf("streaming %d synthetic desktop references\n", cfg.Refs)
	case c.sessionNum >= 1 && c.sessionNum <= 4:
		s := user.PaperSessions()[c.sessionNum-1]
		fmt.Printf("collecting and replaying %s...\n", s.Name)
		run, err := exp.RunSession(ctx, s)
		if err != nil {
			return err
		}
		// Session replays collect kinds alongside addresses, so the same
		// trace serves address-only and write-policy sweeps.
		newSource = func() (sweep.Source, io.Closer, error) {
			return sweep.NewKindedSliceSource(run.Trace, run.Kinds), nil, nil
		}
		fmt.Printf("trace: %d references (%.1f%% flash), no-cache Teff %.3f\n",
			len(run.Trace),
			100*float64(run.Row.FlashRefs)/float64(run.Row.RAMRefs+run.Row.FlashRefs),
			cache.NoCacheTeff(run.Row.RAMRefs, run.Row.FlashRefs))
	default:
		return usageError{fmt.Errorf("need one of -trace, -din, -session or -desktop")}
	}
	if c.resume && c.checkpoint == "" {
		return usageError{fmt.Errorf("-resume requires -checkpoint")}
	}

	var cfgs []cache.Config
	var polLabels []string
	for _, p := range pols {
		grid := cache.PaperSweep()
		for i := range grid {
			grid[i].Policy = p
			grid[i].Write = wp
		}
		cfgs = append(cfgs, grid...)
		polLabels = append(polLabels, p.String())
	}
	polLabel := strings.Join(polLabels, ",")
	opts := sweep.Options{
		Workers:               c.workers,
		ChunkRefs:             c.chunk,
		Engine:                eng,
		Obs:                   reg,
		CheckpointPath:        c.checkpoint,
		CheckpointEveryChunks: c.checkpointEvery,
		Resume:                c.resume,
	}
	if c.l2Sizes != "" {
		hs, err := hierarchyGrid(cfgs, c, wp)
		if err != nil {
			return usageError{err}
		}
		return hierarchyMain(ctx, c, hs, newSource, opts, wp, polLabel)
	}
	info, err := sweep.Plan(opts, cfgs)
	if err != nil {
		return err
	}
	if info.FallbackConfigs > 0 {
		fmt.Fprintf(os.Stderr, "cachesweep: warning: %d of %d configurations have no single-pass engine and fall back to per-config direct simulation\n",
			info.FallbackConfigs, len(cfgs))
	}
	c.obsFlags.Note("fallback_configs", fmt.Sprintf("%d", info.FallbackConfigs))
	fmt.Printf("sweep: %s\n", sweep.Describe(opts, cfgs))
	c.obsFlags.Note("engine", sweep.Describe(opts, cfgs))
	c.obsFlags.Note("policy", polLabel)
	if wp != cache.WriteIgnore {
		c.obsFlags.Note("write_policy", wp.String())
	}
	if c.planOnly {
		printPlanSummary(info)
		return nil
	}

	results, err := runOnce(ctx, cfgs, newSource, opts)
	if err != nil {
		if c.checkpoint != "" && simerr.IsCanceled(err) {
			fmt.Fprintf(os.Stderr, "cachesweep: checkpoint saved to %s; re-run with -resume to continue\n", c.checkpoint)
		}
		return err
	}
	if c.crossValidate {
		// Checkpointing applies to the headline sweep only; the
		// verification pass is always a full second run.
		vopts := opts
		vopts.CheckpointPath = ""
		vopts.Resume = false
		if err := crossValidateEngines(ctx, cfgs, newSource, vopts, results); err != nil {
			return err
		}
		c.obsFlags.Note("crossvalidate", "OK")
	}

	model := energy.Default()
	if wp == cache.WriteIgnore {
		t := report.New(fmt.Sprintf("%d-configuration sweep (%s)", len(cfgs), polLabel),
			"config", "miss rate", "Teff (Eq.2)", "Teff exact", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%.3f\t%.3f\t%s", r.Config, report.Pct(r.MissRate()),
				r.TeffPaper(), r.TeffExact(), report.Pct(model.MemorySaving(r)))
		}
		fmt.Print(t)
	} else {
		t := report.New(fmt.Sprintf("%d-configuration sweep (%s, %s)", len(cfgs), polLabel, wp),
			"config", "miss rate", "Teff exact", "Teff +writes", "writebacks", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%.3f\t%.3f\t%d\t%s", r.Config, report.Pct(r.MissRate()),
				r.TeffExact(), r.TeffWriteAware(), r.Writebacks, report.Pct(model.MemorySaving(r)))
		}
		fmt.Print(t)
	}
	fmt.Println("\n(energy column: first-order memory-system energy model; see internal/energy)")
	if c.pareto {
		pts := make([]report.ParetoPoint, len(results))
		for i, r := range results {
			pts[i] = report.ParetoPoint{
				Label: r.Config.String(),
				X:     model.MemoryPerAccessNJ(r),
				Y:     r.TeffWriteAware(),
			}
		}
		front := report.ParetoFront(pts)
		pt := report.New(fmt.Sprintf("energy/latency Pareto front (%d of %d configurations non-dominated)", len(front), len(results)),
			"config", "mem nJ/access", "Teff +writes")
		for _, p := range front {
			pt.Addf("%s\t%.4f\t%.4f", p.Label, p.X, p.Y)
		}
		fmt.Print(pt)
	}
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s, what string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q (want a comma-separated list of positive integers)", what, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// hierarchyGrid pairs every L1 grid configuration with every L2
// candidate from the -l2-* flags under the -hierarchy content policy.
// Both levels inherit the L1's replacement policy and the sweep's write
// policy; an -l2-line of 0 matches each L1's own line size (which also
// satisfies the exclusive policy's equal-line-size requirement).
func hierarchyGrid(l1s []cache.Config, c *config, wp cache.WritePolicy) ([]cache.Hierarchy, error) {
	content, err := cache.ParseContentPolicy(c.hierarchy)
	if err != nil {
		return nil, err
	}
	sizes, err := parseIntList(c.l2Sizes, "-l2-sizes entry")
	if err != nil {
		return nil, err
	}
	assocs, err := parseIntList(c.l2Assoc, "-l2-assoc entry")
	if err != nil {
		return nil, err
	}
	var hs []cache.Hierarchy
	for _, l1 := range l1s {
		for _, kb := range sizes {
			for _, ways := range assocs {
				line := c.l2Line
				if line == 0 {
					line = l1.LineBytes
				}
				l2 := cache.Config{SizeBytes: kb << 10, LineBytes: line, Ways: ways,
					Policy: l1.Policy, Write: wp}
				h := cache.Hierarchy{Levels: []cache.Config{l1, l2}, Content: content}
				if err := h.Validate(); err != nil {
					return nil, err
				}
				hs = append(hs, h)
			}
		}
	}
	return hs, nil
}

// hierarchyMain is sweepMain's back half for -l2-sizes runs: plan,
// sweep, and report over hierarchies instead of single configurations.
func hierarchyMain(ctx context.Context, c *config, hs []cache.Hierarchy, newSource openFunc, opts sweep.Options, wp cache.WritePolicy, polLabel string) error {
	if c.crossValidate {
		return usageError{fmt.Errorf("-crossvalidate applies to single-level sweeps; hierarchy engine agreement is covered by -algo direct")}
	}
	info, err := sweep.PlanHierarchies(opts, hs)
	if err != nil {
		return usageError{err}
	}
	if info.FallbackConfigs > 0 {
		fmt.Fprintf(os.Stderr, "cachesweep: warning: %d level configurations have no single-pass engine and fall back to per-config direct simulation\n",
			info.FallbackConfigs)
	}
	desc := sweep.DescribeHierarchies(opts, hs)
	fmt.Printf("sweep: %s\n", desc)
	c.obsFlags.Note("engine", desc)
	c.obsFlags.Note("policy", polLabel)
	c.obsFlags.Note("hierarchy", hs[0].Content.String())
	if wp != cache.WriteIgnore {
		c.obsFlags.Note("write_policy", wp.String())
	}
	if c.planOnly {
		printPlanSummary(info)
		return nil
	}

	results, err := runHierOnce(ctx, hs, newSource, opts)
	if err != nil {
		if c.checkpoint != "" && simerr.IsCanceled(err) {
			fmt.Fprintf(os.Stderr, "cachesweep: checkpoint saved to %s; re-run with -resume to continue\n", c.checkpoint)
		}
		return err
	}

	model := energy.Default()
	if wp == cache.WriteIgnore {
		t := report.New(fmt.Sprintf("%d-hierarchy sweep (%s, %s)", len(hs), polLabel, hs[0].Content),
			"hierarchy", "L1 miss", "global miss", "Teff exact", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%s\t%.3f\t%s", r.Hierarchy, report.Pct(r.L1().MissRate()),
				report.Pct(r.MissRate()), r.TeffExact(), report.Pct(model.HierarchyMemorySaving(r)))
		}
		fmt.Print(t)
	} else {
		t := report.New(fmt.Sprintf("%d-hierarchy sweep (%s, %s, %s)", len(hs), polLabel, hs[0].Content, wp),
			"hierarchy", "L1 miss", "global miss", "Teff exact", "Teff +writes", "mem wr bytes", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%s\t%.3f\t%.3f\t%d\t%s", r.Hierarchy, report.Pct(r.L1().MissRate()),
				report.Pct(r.MissRate()), r.TeffExact(), r.TeffWriteAware(),
				r.MemoryWriteTrafficBytes(), report.Pct(model.HierarchyMemorySaving(r)))
		}
		fmt.Print(t)
	}
	fmt.Println("\n(energy column: first-order memory-system energy model; see internal/energy)")
	if c.pareto {
		pts := make([]report.ParetoPoint, len(results))
		for i, r := range results {
			pts[i] = report.ParetoPoint{
				Label: r.Hierarchy.String(),
				X:     model.HierarchyMemoryPerAccessNJ(r),
				Y:     r.TeffWriteAware(),
			}
		}
		front := report.ParetoFront(pts)
		pt := report.New(fmt.Sprintf("energy/latency Pareto front (%d of %d hierarchies non-dominated)", len(front), len(results)),
			"hierarchy", "mem nJ/access", "Teff +writes")
		for _, p := range front {
			pt.Addf("%s\t%.4f\t%.4f", p.Label, p.X, p.Y)
		}
		fmt.Print(pt)
	}
	return nil
}

// printPlanSummary renders the resolved engine plan for -plan dry runs.
func printPlanSummary(info sweep.PlanInfo) {
	t := report.New("sweep plan (dry run; nothing simulated)", "field", "value")
	t.Addf("engine\t%v", info.Engine)
	t.Addf("configurations\t%d", info.Configs)
	t.Addf("units\t%d", info.Units)
	t.Addf("max levels\t%d", info.MaxLevels)
	t.Addf("shared-L1 groups\t%d", info.SharedL1Groups)
	t.Addf("fused hierarchies\t%d", info.FusedHierarchies)
	t.Addf("family configs\t%d", info.FamilyConfigs)
	t.Addf("direct-fallback configs\t%d", info.FallbackConfigs)
	t.Addf("OPT configs\t%d", info.OptConfigs)
	t.Addf("needs kinds\t%v", info.NeedsKinds)
	t.Addf("buffers trace\t%v", info.BuffersTrace)
	fmt.Print(t)
}

// attachSourceObs binds a streaming source's read counters into the
// registry (no-op when observability is off).
func attachSourceObs(src sweep.Source, reg *obs.Registry) sweep.Source {
	if reg == nil {
		return src
	}
	switch s := src.(type) {
	case *exp.TraceSource:
		s.ObsRefs = reg.Counter("trace.refs_read")
		s.ObsBytes = reg.Counter("trace.bytes_read")
	case *dtrace.PackedSource:
		s.ObsRefs = reg.Counter("trace.refs_read")
	case *exp.DineroSource:
		s.ObsRefs = reg.Counter("trace.refs_read")
	}
	return src
}

// openFunc opens a fresh pass over a trace and returns the file the
// source reads, for the caller to close; the closer is nil when no file
// backs the source.
type openFunc func() (sweep.Source, io.Closer, error)

// openTraceFile opens a raw or packed trace file, told apart by its
// magic, and returns the source with its file. A file whose magic is
// not a trace's is closed before the error returns.
func openTraceFile(path string) (sweep.Source, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, _, err := exp.OpenTraceSource(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}

// runOnce is runHierOnce for a configuration sweep: each configuration
// sweeps as a one-level hierarchy and reports its only level.
func runOnce(ctx context.Context, cfgs []cache.Config, newSource openFunc, opts sweep.Options) ([]cache.Result, error) {
	hs := make([]cache.Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		hs[i] = cache.Single(cfg)
	}
	hrs, err := runHierOnce(ctx, hs, newSource, opts)
	if err != nil {
		return nil, err
	}
	results := make([]cache.Result, len(hrs))
	for i, hr := range hrs {
		results[i] = hr.L1()
	}
	return results, nil
}

// runHierOnce opens a fresh source, sweeps it, and closes its file on
// every path.
func runHierOnce(ctx context.Context, hs []cache.Hierarchy, newSource openFunc, opts sweep.Options) ([]cache.HierarchyResult, error) {
	src, f, err := newSource()
	if err != nil {
		return nil, err
	}
	if f != nil {
		defer f.Close()
	}
	return sweep.RunHierarchies(ctx, hs, src, opts)
}

// crossValidateEngines re-runs the sweep on the engine not used for the
// headline results and verifies every per-configuration counter matches
// bit for bit.
func crossValidateEngines(ctx context.Context, cfgs []cache.Config, newSource openFunc, opts sweep.Options, got []cache.Result) error {
	ran := opts.Engine
	other := sweep.EngineDirect
	if ran == sweep.EngineDirect {
		other = sweep.EngineStack
	}
	opts.Engine = other
	want, err := runOnce(ctx, cfgs, newSource, opts)
	if err != nil {
		return fmt.Errorf("cross-validation sweep (%v engine): %w", other, err)
	}
	if os.Getenv("CACHESWEEP_FORCE_MISMATCH") != "" && len(want) > 0 {
		// Test hook: perturb one re-run counter so the comparison must
		// fail, exercising the mismatch exit path end to end.
		want[0].Misses++
	}
	mismatches := 0
	for i := range want {
		if got[i] != want[i] {
			mismatches++
			fmt.Printf("MISMATCH %v:\n  %v engine: %+v\n  %v engine: %+v\n",
				cfgs[i], ran, got[i], other, want[i])
		}
	}
	if mismatches > 0 {
		return simerr.New(simerr.ErrDivergence, "cachesweep: crossvalidate",
			fmt.Errorf("cross-validation FAILED: %d of %d configurations diverged", mismatches, len(cfgs)))
	}
	fmt.Printf("cross-validation OK: %d/%d configurations bit-identical across stack and direct engines\n",
		len(cfgs), len(cfgs))
	return nil
}
