// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-versus-measured values.
//
// -run all runs the experiments one after another, in the order of the
// usage line below, and writes each one's section to stdout as it runs:
// a "==== name ====" header, the experiment's output and a blank line.
// A failure ends its section with "(name: failed: <error>)" and an
// interrupt ends the running one with "(name: canceled: <error>)"; either
// way the suite stops there, and every later section reads
// "(name: canceled: <reason>)". The whole suite reruns in seconds.
//
// Usage:
//
//	experiments -run all
//	experiments -run pen|fig3|table1|fig5|fig6|fig7|validate-log|validate-state|validate-chain|opcodes|profiling|energy|writepolicy
//	experiments -run fig5 -session 2
//
// Exit codes: 0 success, 1 experiment failure, 2 bad usage,
// 3 interrupted (SIGINT/SIGTERM).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"palmsim/internal/cache"
	"palmsim/internal/exp"
	"palmsim/internal/obs"
	"palmsim/internal/report"
	"palmsim/internal/sim"
	"palmsim/internal/simerr"
	"palmsim/internal/user"
)

// experiment is one entry of the dispatch table: a name for -run and the
// function that prints its report, given the -session number.
type experiment struct {
	name string
	run  func(ctx context.Context, w io.Writer, session int) error
}

// experiments is the dispatch table, in the order -run all prints them.
var experiments = []experiment{
	{"pen", runPen},
	{"fig3", runFig3},
	{"table1", runTable1},
	{"fig5", func(ctx context.Context, w io.Writer, session int) error {
		return runCacheFigures(ctx, w, session, true, false)
	}},
	{"fig6", func(ctx context.Context, w io.Writer, session int) error {
		return runCacheFigures(ctx, w, session, false, true)
	}},
	{"fig7", runFig7},
	{"validate-log", func(ctx context.Context, w io.Writer, _ int) error { return runValidation(ctx, w, true, false) }},
	{"validate-state", func(ctx context.Context, w io.Writer, _ int) error { return runValidation(ctx, w, false, true) }},
	{"validate-chain", runValidateChain},
	{"opcodes", runOpcodes},
	{"profiling", runProfilingAblation},
	{"energy", runEnergy},
	{"writepolicy", runWritePolicy},
}

// experimentNames lists the dispatch table's names, in order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// runHelp is the -run flag's help.
func runHelp() string {
	return "experiment: " + strings.Join(experimentNames(), ", ") + ", all"
}

func main() {
	run := flag.String("run", "all", runHelp())
	session := flag.Int("session", 1, "paper session number (1-4) for the cache study")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runMain(ctx, os.Stdout, os.Stderr, experiments, *run, *session))
}

// runMain runs one experiment of table, or all of them, printing reports
// to stdout and failures to stderr, and returns the exit code.
func runMain(ctx context.Context, stdout, stderr io.Writer, table []experiment, run string, session int) int {
	if session < 1 || session > 4 {
		fmt.Fprintf(stderr, "experiments: session %d out of range 1-4\n", session)
		return obs.ExitUsage
	}

	if run == "all" {
		return runAll(ctx, stdout, stderr, table, session)
	}
	for _, e := range table {
		if e.name == run {
			if err := e.run(ctx, stdout, session); err != nil {
				return report1(stderr, err)
			}
			return obs.ExitOK
		}
	}
	fmt.Fprintf(stderr, "experiments: unknown experiment %q\n", run)
	return obs.ExitUsage
}

// runAll runs table's experiments in order, each writing its section
// straight to stdout. The first failure cancels the context the later
// experiments would get, so they, like every experiment after an
// interrupt, print only why they did not run.
func runAll(ctx context.Context, stdout, stderr io.Writer, table []experiment, session int) int {
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var failure error
	for _, e := range table {
		fmt.Fprintf(stdout, "==== %s ====\n", e.name)
		err := runCtx.Err()
		if err == nil {
			err = e.run(runCtx, stdout, session)
		}
		switch {
		case err == nil:
		case runCtx.Err() != nil:
			fmt.Fprintf(stdout, "(%s: canceled: %v)\n", e.name, err)
		default:
			fmt.Fprintf(stdout, "(%s: failed: %v)\n", e.name, err)
			failure = fmt.Errorf("%s: %v", e.name, err)
			abort()
		}
		fmt.Fprintln(stdout)
	}
	if err := ctx.Err(); err != nil {
		return report1(stderr, simerr.New(simerr.ErrCanceled, "run all", err))
	}
	if failure != nil {
		fmt.Fprintln(stderr, "experiments:", failure)
		return obs.ExitFailure
	}
	return obs.ExitOK
}

// report1 prints a failure and maps it to the documented exit code.
func report1(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "experiments:", err)
	if simerr.IsCanceled(err) {
		return obs.ExitInterrupted
	}
	return obs.ExitFailure
}

// runPen is E1: the §2.3.3 pen-sampling overhead check.
func runPen(ctx context.Context, w io.Writer, _ int) error {
	res, err := exp.PenSampling(ctx, 10)
	if err != nil {
		return err
	}
	t := report.New("Pen sampling with EvtEnqueuePenPoint hack installed (paper: 50.0/s)",
		"seconds", "pen records", "rate/s")
	t.Addf("%.0f\t%d\t%.1f", res.Seconds, res.PenRecords, res.Rate)
	fmt.Fprint(w, t)
	return nil
}

// runFig3 is E2: average overhead per hack call vs. activity-log size.
func runFig3(ctx context.Context, w io.Writer, _ int) error {
	pts, err := exp.HackOverhead(ctx, nil)
	if err != nil {
		return err
	}
	t := report.New("Figure 3: average overhead per hack call (ms) vs. database size\n(paper: ~6.4 ms averaged over 0-10k records, ~15.5 ms at 50-60k)",
		"hack", "records", "cycles/call", "ms/call")
	for _, p := range pts {
		t.Addf("%s\t%d\t%.0f\t%.2f", p.Hack, p.Records, p.CyclesPer, p.MillisPer)
	}
	fmt.Fprint(w, t)

	// The paper's own measurement procedure: the isolated hack called
	// from a 68k tight loop ("the test eliminated the call to the
	// original system routine to isolate the overhead").
	fmt.Fprintln(w, "\nTight-loop measurement (the paper's exact method, EvtEnqueueKey):")
	for _, n := range []int{0, 10000, 20000, 30000, 40000, 50000, 60000} {
		r, err := exp.TightLoop(ctx, n, 50)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %6d records: %8.0f cycles/call = %5.2f ms/call\n",
			r.Records, r.CyclesPer, r.MillisPer)
	}
	return nil
}

// runTable1 is E3: the volunteer-user session data.
func runTable1(ctx context.Context, w io.Writer, _ int) error {
	runs, err := exp.Table1(ctx)
	if err != nil {
		return err
	}
	t := report.New("Table 1: volunteer user session data\n(paper: events 1243/933/755/1622; RAM 214/31/34/234 M; flash 443/69/76/486 M; avg 2.35/2.38/2.39/2.35)",
		"session", "events", "RAM refs (M)", "flash refs (M)", "elapsed", "avg mem cyc")
	for _, run := range runs {
		r := run.Row
		t.Addf("%s\t%d\t%s\t%s\t%s\t%.2f",
			r.Name, r.Events,
			report.Millions(r.RAMRefs), report.Millions(r.FlashRefs),
			sim.FormatElapsed(r.ElapsedSeconds), r.AvgMemCycles)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nNote: reference counts are scaled down ~100x versus the paper's physical")
	fmt.Fprintln(w, "sessions (synthetic workload); all reported ratios are scale-free.")
	return nil
}

// runCacheFigures covers E4 (Figure 5: miss rates) and E5 (Figure 6:
// average effective memory access times) on one session's trace.
func runCacheFigures(ctx context.Context, w io.Writer, session int, miss, teff bool) error {
	s := user.PaperSessions()[session-1]
	fmt.Fprintf(w, "replaying %s and sweeping 56 cache configurations...\n", s.Name)
	run, results, err := exp.CacheStudy(ctx, s)
	if err != nil {
		return err
	}
	printSweep(w, results, cache.NoCacheTeff(run.Row.RAMRefs, run.Row.FlashRefs), miss, teff)
	return nil
}

// runFig7 is E6: the desktop-trace comparison.
func runFig7(ctx context.Context, w io.Writer, _ int) error {
	fmt.Fprintln(w, "sweeping the synthetic desktop address trace (Figure 7 stand-in)...")
	results, err := exp.DesktopStudy(ctx, 0)
	if err != nil {
		return err
	}
	printSweep(w, results, 0, true, false)
	return nil
}

// printSweep renders sweep results grouped by line size and associativity,
// as the paper's figures are.
func printSweep(w io.Writer, results []cache.Result, noCache float64, miss, teff bool) {
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i].Config, results[j].Config
		if a.LineBytes != b.LineBytes {
			return a.LineBytes < b.LineBytes
		}
		if a.Ways != b.Ways {
			return a.Ways < b.Ways
		}
		return a.SizeBytes < b.SizeBytes
	})
	if miss {
		t := report.New("Miss rates by configuration", "config", "miss rate", "misses", "accesses")
		for _, r := range results {
			t.Addf("%s\t%s\t%d\t%d", r.Config, report.Pct(r.MissRate()), r.Misses, r.Accesses)
		}
		fmt.Fprint(w, t)
	}
	if teff {
		t := report.New("Average effective memory access time (cycles, Equation 2)",
			"config", "Teff", "Teff exact", "vs no cache")
		for _, r := range results {
			t.Addf("%s\t%.3f\t%.3f\t-%.0f%%", r.Config, r.TeffPaper(), r.TeffExact(),
				(1-r.TeffPaper()/noCache)*100)
		}
		fmt.Fprint(w, t)
		fmt.Fprintf(w, "\nno-cache Teff (Equation 3): %.3f cycles\n", noCache)
	}
}

// runValidation covers E7/E8 on the three §3.2 workloads.
func runValidation(ctx context.Context, w io.Writer, logs, states bool) error {
	for _, wl := range exp.ValidationWorkloads() {
		res, err := exp.ValidateSession(ctx, wl)
		if err != nil {
			return err
		}
		if logs {
			status := "OK"
			if !res.Log.OK() {
				status = "FAILED"
			}
			fmt.Fprintf(w, "%-18s log correlation: %s  [%s]\n", wl.Name, res.Log, status)
			for _, p := range res.Log.Problems {
				fmt.Fprintln(w, "   !", p)
			}
		}
		if states {
			status := "OK"
			if !res.State.OK() {
				status = "FAILED"
			}
			fmt.Fprintf(w, "%-18s state correlation: %s  [%s]\n", wl.Name, res.State, status)
			for _, d := range res.State.UnexpectedDiffs() {
				fmt.Fprintln(w, "   !", d)
			}
		}
	}
	return nil
}

// runValidateChain reproduces the §3.1 chained setup: each workload's
// initial state is the previous one's final state.
func runValidateChain(ctx context.Context, w io.Writer, _ int) error {
	results, err := exp.ValidateChain(ctx, exp.ValidationWorkloads())
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "%-18s log: %s [%s]  state: %s [%s]\n",
			r.Session.Name, r.Log, okStr(r.Log.OK()), r.State, okStr(r.State.OK()))
	}
	return nil
}

// runOpcodes prints the §2.4.2 opcode-usage statistic for one session.
func runOpcodes(ctx context.Context, w io.Writer, session int) error {
	s := user.PaperSessions()[session-1]
	fmt.Fprintf(w, "replaying %s with the opcode histogram enabled...\n", s.Name)
	pb, err := exp.ReplayWithOpcodes(ctx, s)
	if err != nil {
		return err
	}
	top := exp.TopOpcodes(pb.OpcodeHist, 20)
	t := report.New("Top 20 executed instruction forms", "mnemonic", "example opcode", "count", "share")
	var total uint64
	for _, st := range exp.TopOpcodes(pb.OpcodeHist, 0) {
		total += st.Count
	}
	for _, st := range top {
		t.Addf("%s\t$%04X\t%d\t%s", st.Mnemonic, st.Opcode, st.Count,
			report.Pct(float64(st.Count)/float64(total)))
	}
	fmt.Fprint(w, t)
	return nil
}

// runProfilingAblation quantifies §2.4.2's completeness argument.
func runProfilingAblation(ctx context.Context, w io.Writer, _ int) error {
	ab, err := exp.RunProfilingAblation(ctx, exp.ValidationWorkloads()[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace with ROM TrapDispatcher (Profiling on):  %d refs\n", ab.OnRefs)
	fmt.Fprintf(w, "trace with native dispatch (Profiling off):    %d refs (%.2f%% skipped)\n",
		ab.OffRefs, 100*(1-float64(ab.OffRefs)/float64(ab.OnRefs)))
	t := report.New("Cache results from complete vs truncated traces",
		"config", "miss (complete)", "miss (truncated)")
	for i := range ab.On {
		if ab.On[i].Config.Ways != 1 || ab.On[i].Config.LineBytes != 32 {
			continue
		}
		t.Addf("%s\t%s\t%s", ab.On[i].Config,
			report.Pct(ab.On[i].MissRate()), report.Pct(ab.Off[i].MissRate()))
	}
	fmt.Fprint(w, t)
	return nil
}

// runEnergy prints the §4.4 battery-consumption estimate per config.
func runEnergy(ctx context.Context, w io.Writer, session int) error {
	s := user.PaperSessions()[session-1]
	fmt.Fprintf(w, "energy study over %s...\n", s.Name)
	rows, err := exp.EnergyStudy(ctx, s)
	if err != nil {
		return err
	}
	t := report.New("Memory-system energy with a cache (first-order model)",
		"config", "mem energy saved", "total J (no cache)", "total J (cached)")
	for _, r := range rows {
		if r.Config.Ways != 1 && r.Config.Ways != 8 {
			continue
		}
		t.Addf("%s\t%s\t%.4f\t%.4f", r.Config,
			report.Pct(r.MemorySaving), r.TotalNoCacheJ, r.TotalCachedJ)
	}
	fmt.Fprint(w, t)
	return nil
}

// runWritePolicy prints the write-through vs write-back traffic study.
func runWritePolicy(ctx context.Context, w io.Writer, session int) error {
	s := user.PaperSessions()[session-1]
	fmt.Fprintf(w, "write-policy study over %s...\n", s.Name)
	rows, err := exp.WritePolicyStudy(ctx, s)
	if err != nil {
		return err
	}
	t := report.New("Memory traffic by write policy (extension beyond the paper)",
		"config", "miss rate", "write-through bytes", "write-back bytes")
	for _, r := range rows {
		t.Addf("%s\t%s\t%d\t%d", r.Config, report.Pct(r.MissRate),
			r.WriteThroughBytes, r.WriteBackBytes)
	}
	fmt.Fprint(w, t)
	return nil
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}
