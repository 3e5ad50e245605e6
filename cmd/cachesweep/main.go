// Command cachesweep runs the §4 cache case study over a memory-reference
// trace: either a packed .ptrace file produced by cmd/palmsim, a
// din-format file, a fresh replay of a built-in session, or the
// synthetic desktop trace (Figure 7). All configurations are simulated
// by the internal/sweep engine, on -workers workers; file and desktop
// traces are streamed, so memory use is independent of trace length,
// and every file a sweep opens is closed when it ends.
//
// SIGINT/SIGTERM cancel the sweep at the next chunk boundary: the run
// manifest (when -manifest is given) is still written, with
// "status":"interrupted", and the process exits with code 3. An
// interrupted sweep is simply run again; the paper's largest sweep
// reruns in minutes.
//
// Usage:
//
//	cachesweep -session 1
//	cachesweep -trace out/session1.ptrace -workers 8
//	cachesweep -desktop
//	cachesweep -desktop -refs 500000000
//	cachesweep -session 1 -algo direct                (per-config simulation)
//	cachesweep -session 1 -crossvalidate              (stack vs direct diff)
//	cachesweep -session 1 -policy FIFO    (ablation beyond the paper)
//	cachesweep -session 1 -policy LRU,FIFO,PLRU,OPT   (policy grid)
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
// backward next-use pass. -write-policy needs a kind-carrying trace and
// is rejected with a clear error on the address-only desktop trace.
// Session replays, din files and every .ptrace palmsim writes carry
// kinds; an address-only packed trace, as dtrace.PackTrace(addrs, nil)
// writes, reads as all instruction fetches.
//
// Every flag is checked before anything is printed, a trace file read or
// a session collected: exactly one trace source, -refs only with
// -desktop, -l2-line, -l2-assoc and -hierarchy only with -l2-sizes, and
// no -write-policy over the kindless desktop trace. A -trace or -din
// file that cannot be opened fails before any output too.
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

func main() {
	c := &config{}
	flag.StringVar(&c.traceFile, "trace", "", "packed .ptrace trace file (from palmsim -out)")
	flag.StringVar(&c.dinFile, "din", "", "Dinero din-format trace file")
	flag.IntVar(&c.sessionNum, "session", 0, "replay built-in session (1-4) to obtain the trace")
	flag.BoolVar(&c.desktop, "desktop", false, "use the synthetic desktop trace (Figure 7)")
	flag.IntVar(&c.refs, "refs", 0, "override the synthetic desktop trace length (references; 0 = default)")
	flag.StringVar(&c.policy, "policy", "LRU", "replacement policy: LRU, FIFO, Random, PLRU or OPT; a comma-separated list sweeps the paper grid once per policy")
	flag.StringVar(&c.writePolicy, "write-policy", "", "write policy: ignore (default), through or back; requires a kind-carrying trace")
	flag.StringVar(&c.l2Sizes, "l2-sizes", "", "comma-separated L2 sizes in KB; pairs every L1 grid point with every L2 candidate (hierarchy sweep)")
	flag.IntVar(&c.l2Line, "l2-line", 0, "L2 line size in bytes (0 = match each L1's line size)")
	flag.StringVar(&c.l2Assoc, "l2-assoc", defaultL2Assoc, "comma-separated L2 associativities")
	flag.StringVar(&c.hierarchy, "hierarchy", defaultHierarchy, "multi-level content policy: nine (non-inclusive), inclusive or exclusive")
	flag.BoolVar(&c.planOnly, "plan", false, "print the resolved sweep plan and exit without simulating")
	flag.BoolVar(&c.pareto, "pareto", false, "print the energy/latency Pareto front over all swept configurations")
	flag.StringVar(&c.algo, "algo", "auto", "sweep engine: auto, direct or stack")
	flag.BoolVar(&c.crossValidate, "crossvalidate", false, "run both engines over the trace and verify bit-identical results")
	flag.IntVar(&c.workers, "workers", 0, "concurrent sweep workers (0 = one per core, 1 = serial)")
	profiler := prof.AddFlags()
	c.obsFlags = obs.AddFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(c.obsFlags.Run("cachesweep", profiler, func() error { return sweepMain(ctx, c) }))
}

// The -l2-assoc and -hierarchy defaults; a flat sweep accepts no other.
const (
	defaultL2Assoc   = "4"
	defaultHierarchy = "nine"
)

type config struct {
	traceFile, dinFile          string
	sessionNum, refs, workers   int
	desktop, crossValidate      bool
	policy, algo, writePolicy   string
	l2Sizes, l2Assoc, hierarchy string
	l2Line                      int
	planOnly, pareto            bool
	obsFlags                    *obs.Flags
}

// sweepMain runs every sweep, flat or hierarchical, through one
// sequence: check every flag, open the source, plan (and stop there
// under -plan), sweep, cross-validate, report. A flat sweep (no
// -l2-sizes) is a set of one-level hierarchies that reports as
// configurations.
func sweepMain(ctx context.Context, c *config) error {
	reg := c.obsFlags.Registry()

	// Every flag, before any output, a trace file read or a session
	// collected.
	var pols []cache.Policy
	var polLabels []string
	for _, name := range strings.Split(c.policy, ",") {
		p, err := cache.ParsePolicy(strings.TrimSpace(name))
		if err != nil {
			return obs.Usage(err)
		}
		pols = append(pols, p)
		polLabels = append(polLabels, p.String())
	}
	polLabel := strings.Join(polLabels, ",")
	wp, err := cache.ParseWritePolicy(c.writePolicy)
	if err != nil {
		return obs.Usage(err)
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
		return obs.Usage(fmt.Errorf("unknown engine %q (want auto, direct or stack)", c.algo))
	}
	sources := 0
	for _, set := range []bool{c.traceFile != "", c.dinFile != "", c.sessionNum != 0, c.desktop} {
		if set {
			sources++
		}
	}
	switch {
	case sources != 1:
		return obs.Usage(fmt.Errorf("need exactly one of -trace, -din, -session or -desktop"))
	case c.sessionNum < 0 || c.sessionNum > 4:
		return obs.Usage(fmt.Errorf("-session %d: want 1 to 4", c.sessionNum))
	case c.refs != 0 && !c.desktop:
		return obs.Usage(fmt.Errorf("-refs sets the synthetic trace's length and needs -desktop"))
	case c.refs < 0:
		return obs.Usage(fmt.Errorf("-refs %d: want a positive length", c.refs))
	case c.desktop && wp != cache.WriteIgnore:
		return obs.Usage(fmt.Errorf("-write-policy %s needs access kinds, and the synthetic desktop trace carries no access kinds", c.writePolicy))
	case c.l2Sizes == "" && (c.l2Line != 0 || c.l2Assoc != defaultL2Assoc || c.hierarchy != defaultHierarchy):
		return obs.Usage(fmt.Errorf("-l2-line, -l2-assoc and -hierarchy shape the L2 and need -l2-sizes"))
	}
	var cfgs []cache.Config
	for _, p := range pols {
		grid := cache.PaperSweep()
		for i := range grid {
			grid[i].Policy = p
			grid[i].Write = wp
		}
		cfgs = append(cfgs, grid...)
	}
	flat := c.l2Sizes == ""
	var hs []cache.Hierarchy
	if flat {
		for _, cfg := range cfgs {
			hs = append(hs, cache.Single(cfg))
		}
	} else {
		if hs, err = hierarchyGrid(cfgs, c, wp); err != nil {
			return obs.Usage(err)
		}
		if c.crossValidate {
			return obs.Usage(fmt.Errorf("-crossvalidate applies to single-level sweeps; hierarchy engine agreement is covered by -algo direct"))
		}
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
		// A file that cannot be opened fails here, before any output.
		if err := probe(newSource); err != nil {
			return err
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
		// A file that is not a packed trace fails here, before any output.
		if err := probe(newSource); err != nil {
			return err
		}
		fmt.Printf("streaming packed references from %s\n", c.traceFile)
	case c.desktop:
		cfg := dtrace.DefaultConfig()
		if c.refs > 0 {
			cfg.Refs = c.refs
		}
		newSource = func() (sweep.Source, io.Closer, error) { return dtrace.NewStream(cfg), nil, nil }
		fmt.Printf("streaming %d synthetic desktop references\n", cfg.Refs)
	default: // session, range-checked above
		s := user.PaperSessions()[c.sessionNum-1]
		fmt.Printf("collecting and replaying %s...\n", s.Name)
		run, err := exp.RunSession(ctx, s)
		if err != nil {
			return err
		}
		// Session replays collect kinds alongside addresses, so the same
		// trace serves address-only and write-policy sweeps.
		newSource = func() (sweep.Source, io.Closer, error) {
			return sweep.NewKindedSliceSource(run.Play.Trace, run.Play.TraceKinds), nil, nil
		}
		fmt.Printf("trace: %d references (%.1f%% flash), no-cache Teff %.3f\n",
			len(run.Play.Trace),
			100*float64(run.Row.FlashRefs)/float64(run.Row.RAMRefs+run.Row.FlashRefs),
			cache.NoCacheTeff(run.Row.RAMRefs, run.Row.FlashRefs))
	}

	// Plan and describe the sweep; -plan stops here.
	opts := sweep.Options{Workers: c.workers, Engine: eng, Obs: reg}
	info, err := sweep.PlanHierarchies(opts, hs)
	if err != nil {
		return obs.Usage(err)
	}
	desc := sweep.Describe(opts, info)
	var fellBack string
	if flat {
		fellBack = fmt.Sprintf("%d of %d configurations", info.FallbackConfigs, len(hs))
		c.obsFlags.Note("fallback_configs", fmt.Sprint(info.FallbackConfigs))
	} else {
		fellBack = fmt.Sprintf("%d level configurations", info.FallbackConfigs)
		c.obsFlags.Note("hierarchy", hs[0].Content.String())
	}
	if info.FallbackConfigs > 0 {
		fmt.Fprintf(os.Stderr, "cachesweep: warning: %s have no single-pass engine and fall back to per-config direct simulation\n", fellBack)
	}
	fmt.Printf("sweep: %s\n", desc)
	c.obsFlags.Note("engine", desc)
	c.obsFlags.Note("policy", polLabel)
	if wp != cache.WriteIgnore {
		c.obsFlags.Note("write_policy", wp.String())
	}
	if c.planOnly {
		printPlanSummary(info)
		return nil
	}

	results, err := runHierOnce(ctx, hs, newSource, opts)
	if err != nil {
		return err
	}
	if c.crossValidate {
		if err := crossValidateEngines(ctx, hs, newSource, opts, results); err != nil {
			return err
		}
		c.obsFlags.Note("crossvalidate", "OK")
	}
	printReport(results, flat, c.pareto, polLabel, wp)
	return nil
}

// printReport prints the results table, then with pareto the
// energy/latency Pareto front. A flat sweep's one-level hierarchies
// report as configurations: one miss rate, Equation 2's Teff and the
// writeback count. For a one-level hierarchy every metric the two forms
// share, the front's included, is the configuration's own number.
func printReport(results []cache.HierarchyResult, flat, pareto bool, polLabel string, wp cache.WritePolicy) {
	model := energy.Default()
	var t *report.Table
	switch {
	case flat && wp == cache.WriteIgnore:
		t = report.New(fmt.Sprintf("%d-configuration sweep (%s)", len(results), polLabel),
			"config", "miss rate", "Teff (Eq.2)", "Teff exact", "mem energy saved")
		for _, hr := range results {
			r := hr.L1()
			t.Addf("%s\t%s\t%.3f\t%.3f\t%s", r.Config, report.Pct(r.MissRate()),
				r.TeffPaper(), r.TeffExact(), report.Pct(model.MemorySaving(r)))
		}
	case flat:
		t = report.New(fmt.Sprintf("%d-configuration sweep (%s, %s)", len(results), polLabel, wp),
			"config", "miss rate", "Teff exact", "Teff +writes", "writebacks", "mem energy saved")
		for _, hr := range results {
			r := hr.L1()
			t.Addf("%s\t%s\t%.3f\t%.3f\t%d\t%s", r.Config, report.Pct(r.MissRate()),
				r.TeffExact(), r.TeffWriteAware(), r.Writebacks, report.Pct(model.MemorySaving(r)))
		}
	case wp == cache.WriteIgnore:
		t = report.New(fmt.Sprintf("%d-hierarchy sweep (%s, %s)", len(results), polLabel, results[0].Hierarchy.Content),
			"hierarchy", "L1 miss", "global miss", "Teff exact", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%s\t%.3f\t%s", r.Hierarchy, report.Pct(r.L1().MissRate()),
				report.Pct(r.MissRate()), r.TeffExact(), report.Pct(model.HierarchyMemorySaving(r)))
		}
	default:
		t = report.New(fmt.Sprintf("%d-hierarchy sweep (%s, %s, %s)", len(results), polLabel, results[0].Hierarchy.Content, wp),
			"hierarchy", "L1 miss", "global miss", "Teff exact", "Teff +writes", "mem wr bytes", "mem energy saved")
		for _, r := range results {
			t.Addf("%s\t%s\t%s\t%.3f\t%.3f\t%d\t%s", r.Hierarchy, report.Pct(r.L1().MissRate()),
				report.Pct(r.MissRate()), r.TeffExact(), r.TeffWriteAware(),
				r.MemoryWriteTrafficBytes(), report.Pct(model.HierarchyMemorySaving(r)))
		}
	}
	fmt.Print(t)
	fmt.Println("\n(energy column: first-order memory-system energy model; see internal/energy)")
	if !pareto {
		return
	}
	pts := make([]report.ParetoPoint, len(results))
	for i, r := range results {
		pts[i] = report.ParetoPoint{
			Label: r.Hierarchy.String(),
			X:     model.HierarchyMemoryPerAccessNJ(r),
			Y:     r.TeffWriteAware(),
		}
	}
	noun, col := "hierarchies", "hierarchy"
	if flat {
		noun, col = "configurations", "config"
	}
	front := report.ParetoFront(pts)
	pt := report.New(fmt.Sprintf("energy/latency Pareto front (%d of %d %s non-dominated)", len(front), len(results), noun),
		col, "mem nJ/access", "Teff +writes")
	for _, p := range front {
		pt.Addf("%s\t%.4f\t%.4f", p.Label, p.X, p.Y)
	}
	fmt.Print(pt)
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

// openTraceFile opens a packed trace file and returns the source with
// its file. A file that is not a packed trace is closed before the error
// returns.
func openTraceFile(path string) (sweep.Source, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := dtrace.NewPackedSource(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}

// probe opens a pass over a trace file and closes it again, so a file
// that is missing or has a bad header fails before any output.
func probe(open openFunc) error {
	_, f, err := open()
	if err == nil {
		f.Close()
	}
	return err
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

// crossValidateEngines re-runs a flat sweep on the engine not used for
// the headline results and verifies every configuration's counters match
// bit for bit.
func crossValidateEngines(ctx context.Context, hs []cache.Hierarchy, newSource openFunc, opts sweep.Options, got []cache.HierarchyResult) error {
	ran := opts.Engine
	other := sweep.EngineDirect
	if ran == sweep.EngineDirect {
		other = sweep.EngineStack
	}
	opts.Engine = other
	want, err := runHierOnce(ctx, hs, newSource, opts)
	if err != nil {
		return fmt.Errorf("cross-validation sweep (%v engine): %w", other, err)
	}
	mismatches := 0
	for i := range want {
		if got[i].L1() != want[i].L1() {
			mismatches++
			fmt.Printf("MISMATCH %v:\n  %v engine: %+v\n  %v engine: %+v\n",
				hs[i].L1(), ran, got[i].L1(), other, want[i].L1())
		}
	}
	if mismatches > 0 {
		return simerr.New(simerr.ErrDivergence, "crossvalidate",
			fmt.Errorf("cross-validation FAILED: %d of %d configurations diverged", mismatches, len(hs)))
	}
	fmt.Printf("cross-validation OK: %d/%d configurations bit-identical across stack and direct engines\n",
		len(hs), len(hs))
	return nil
}
