// Command pipeline is the end-to-end benchmark of the simulator's case
// study: replay a logged session with reference tracing on, encode the
// trace, sweep cache designs over it and report (paper §2.4, §4). Each
// workload runs in its own process as a closed loop with one client:
// set-up (repeated, median reported), one untimed warm-up iteration, then
// timed iterations back to back, each starting when the previous one
// finishes. Every iteration's outputs are checked; at the default seed
// they must match the golden digests in testdata/. Times are reported in
// reference seconds, normalized for the host's speed (hostspeed.go).
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload case-study [-seed N] [-seconds S]
//	bash bench/run.sh -workload trace-capture -trace 1 [-spans spans.json]
//	bash bench/run.sh -workload design-space -out ledger.json -label A
//
// Without -seconds a workload runs its fixed number of timed iterations;
// with it, iterations continue (at least three) while the next one is
// expected to end within S seconds of the start, set-up and warm-up
// included. Flags may also be written with two dashes. The last line of
// standard output is a JSON object: correct, attempted, failed and the
// metrics, which are the end-to-end metrics, or the per-layer metrics
// under -trace 1.
//
// Exit codes: 0 success, 1 a failed iteration or check, 2 bad usage.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"palmsim/bench/internal/ledger"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	spans     string
	out       string
	label     string
	goldenOut string
}

func main() {
	var c config
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&c.seed, "seed", defaultSeed, "input seed; 1 reproduces the paper sessions and the golden digests")
	flag.Float64Var(&c.seconds, "seconds", 0, "end the run, set-up included, within about this many seconds (0: the workload's fixed count of timed iterations)")
	flag.IntVar(&c.trace, "trace", 0, "1 records per-layer spans and reports the per-layer metrics")
	flag.StringVar(&c.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	flag.StringVar(&c.out, "out", "", "append this run to the JSON ledger at this path")
	flag.StringVar(&c.label, "label", "", "set label recorded with the ledger run")
	flag.StringVar(&c.goldenOut, "golden-out", "", "write the warm-up digest to this file, to regenerate a golden")
	flag.Parse()

	w, ok := lookup(c.workload)
	if !ok || (c.trace != 0 && c.trace != 1) || c.seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: pipeline -workload "+strings.Join(names, "|")+" [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out LEDGER -label L]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, w, c)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, w workload, c config) int {
	res, err := measure(ctx, w, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "pipeline: FAILED:", p)
	}
	if c.out != "" {
		if err := ledger.Append(c.out, res.ledgerRun(w, c)); err != nil {
			fmt.Fprintln(os.Stderr, "pipeline:", err)
			return 1
		}
	}
	if c.spans != "" && res.tr != nil {
		if err := res.tr.write(c.spans); err != nil {
			fmt.Fprintln(os.Stderr, "pipeline:", err)
			return 1
		}
	}
	res.print(w, c)
	if !res.correct() {
		return 1
	}
	return 0
}

// stopwatch accumulates the time between resume and pause, so an
// iteration's correctness checks stay out of its timed seconds.
type stopwatch struct {
	started time.Time
	running bool
	total   time.Duration
}

func (s *stopwatch) resume() {
	if !s.running {
		s.started, s.running = time.Now(), true
	}
}

func (s *stopwatch) pause() {
	if s.running {
		s.total += time.Since(s.started)
		s.running = false
	}
}

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 5

// probeRuns is how many times the traced run repeats its probes.
const probeRuns = 3

type result struct {
	attempted, failed int
	problems          []string
	refs              uint64 // references in one iteration's inputs
	timed             time.Duration
	hwmReset          bool
	metrics           map[string]ledger.Metric
	tr                *tracer
	overhead          float64 // traced minus untraced pipeline_s
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// measure runs set-up, the warm-up and the timed iterations, and
// summarizes them.
func measure(ctx context.Context, w workload, c config) (*result, error) {
	begun := time.Now()
	host := newHostSpeed()
	ss := w.sessions(c.seed)
	var in []*input
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		in = nil
		runtime.GC()
		host.reset()
		host.sample()
		t0 := time.Now()
		var err error
		in, err = w.setup(ctx, ss)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		host.sample()
		setup = append(setup, wall*host.scale())
	}

	res := &result{metrics: map[string]ledger.Metric{}, hwmReset: true}
	var ref *digest
	if c.seed == defaultSeed && c.goldenOut == "" {
		g, err := golden(w.name)
		if err != nil {
			return nil, err
		}
		if g == nil {
			res.problems = append(res.problems, "no golden digest committed for "+w.name)
		}
		ref = g
	}
	if c.trace == 1 {
		res.tr = newTracer(w.name)
	}

	warm := runIteration(ctx, w, in, res.tr, host, -1)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	if c.goldenOut != "" {
		data, err := warm.digest.marshal()
		if err == nil {
			err = os.WriteFile(c.goldenOut, data, 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, p := range warm.check(ref) {
		res.problems = append(res.problems, "warm-up: "+p)
	}
	if ref == nil {
		ref = warm.digest
	}
	for _, s := range warm.digest.Sessions {
		res.refs += s.Refs
	}

	var secs, walls, kernels, rss, tracedSecs []float64
	layerSamples := map[string][]float64{}
	minIters := 3
	if res.tr != nil {
		minIters = 4 // two traced and two untraced
	}
	var last time.Duration // wall time of the previous iteration, checks included
	for i := 0; ; i++ {
		if c.seconds > 0 {
			// Stop before an iteration that would overrun the time box.
			if i >= minIters && (time.Since(begun)+last).Seconds() > c.seconds {
				break
			}
		} else if i >= w.iters {
			break
		}
		iterStart := time.Now()
		// A traced run alternates traced and untraced iterations; the
		// difference of their medians is the tracing overhead.
		var tr *tracer
		if res.tr != nil && i%2 == 0 {
			tr = res.tr
		}
		it := runIteration(ctx, w, in, tr, host, i)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		last = time.Since(iterStart)
		res.attempted++
		res.hwmReset = res.hwmReset && it.hwmReset
		if probs := it.check(ref); len(probs) > 0 {
			res.failed++
			for _, p := range probs {
				res.problems = append(res.problems, fmt.Sprintf("iteration %d: %s", i, p))
			}
			continue
		}
		res.timed += it.timed
		rss = append(rss, it.peakRSS)
		if tr != nil {
			tracedSecs = append(tracedSecs, it.refSeconds())
			for k, v := range it.layers {
				layerSamples[k] = append(layerSamples[k], v)
			}
		} else {
			secs = append(secs, it.refSeconds())
			walls = append(walls, it.timed.Seconds())
			kernels = append(kernels, it.kernel*1e3)
		}
	}

	rates := make([]float64, len(secs))
	for i, s := range secs {
		rates[i] = float64(res.refs) / s
	}
	// An iteration's peak is lower when a GC cycle happens to finish before
	// its largest allocations, which makes the peaks of one run bimodal on
	// design-space; their upper quartile is the steady summary.
	var peaks ledger.Metric
	peaks.Summarize(rss)
	res.set(endToEnd[0], secs)
	res.set(endToEnd[1], rates)
	res.set(endToEnd[2], []float64{peaks.Q3})
	res.set(endToEnd[3], setup)
	res.set(iterationRSS, rss)
	res.set(wallSeconds, walls)
	res.set(kernelMs, kernels)
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	res.set(errorRate, []float64{rate})

	if res.tr != nil {
		for k := 0; k < probeRuns; k++ {
			emit, boot, err := probes(ctx, w, in)
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			layerSamples["sim.trace_emit_s"] = append(layerSamples["sim.trace_emit_s"], emit)
			layerSamples["sim.boot_restore_s"] = append(layerSamples["sim.boot_restore_s"], boot)
		}
		for _, d := range perLayer {
			res.set(d, layerSamples[d.name])
		}
		var traced ledger.Metric
		traced.Summarize(tracedSecs)
		res.overhead = traced.Median - res.metrics["pipeline_s"].Median
	}
	return res, nil
}

// set summarizes samples as metric d. Only end-to-end metrics carry a
// bound; error_rate is end-to-end with an absolute rule instead.
func (r *result) set(d metricDef, samples []float64) {
	m := ledger.Metric{Unit: d.unit, Better: d.better, Bound: d.bound,
		EndToEnd: d.bound > 0 || d == errorRate, Absolute: d == errorRate}
	m.Summarize(samples)
	r.metrics[d.name] = m
}

type iteration struct {
	timed    time.Duration // wall time, checks and host-speed samples excluded
	kernel   float64       // mean reference-kernel seconds sampled during it
	scale    float64       // wall to reference seconds
	peakRSS  float64       // MB
	hwmReset bool
	digest   *digest
	layers   map[string]float64
	problems []string
	err      error
}

// refSeconds is the iteration's time in reference seconds.
func (it iteration) refSeconds() float64 { return it.timed.Seconds() * it.scale }

// runIteration runs one iteration. It starts from a heap collected and
// returned to the OS, as a fresh palmsim process would, so one
// iteration's garbage does not move the next one's time or peak RSS; the
// peak RSS is the iteration's own. None of this is timed. The host's speed
// is sampled before every stage (runner.stage) and at the end.
func runIteration(ctx context.Context, w workload, in []*input, tr *tracer, host *hostSpeed, i int) iteration {
	debug.FreeOSMemory()
	hwmReset := resetPeakRSS() == nil
	r := &runner{tr: tr, host: host}
	host.reset()
	tr.begin(i)
	r.clock.resume()
	d, err := w.iterate(ctx, r, in)
	r.clock.pause()
	host.sample()
	layers := tr.end()
	it := iteration{timed: r.clock.total, kernel: host.kernelSeconds(), scale: host.scale(), hwmReset: hwmReset,
		digest: d, layers: layers, problems: r.problems, err: err}
	if err == nil {
		it.peakRSS, it.err = peakRSSMB()
	}
	return it
}

// check lists the iteration's failures: an error, a failed invariant, or
// a digest that differs from ref.
func (it iteration) check(ref *digest) []string {
	if it.err != nil {
		return []string{it.err.Error()}
	}
	probs := it.problems
	if ref != nil {
		probs = append(probs, diffDigest(it.digest, ref)...)
	}
	return probs
}

// resetPeakRSS resets the process's VmHWM to its current RSS.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB (2^20
// bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// print writes the human-readable summary, then the result object as the
// last line.
func (r *result) print(w workload, c config) {
	mode := "untraced"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s), seed %d, %s; closed loop, 1 client, GOMAXPROCS %d, %s\n",
		w.name, w.why, c.seed, mode, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  %d refs per iteration; %d timed iterations in %.1f wall s; set-up run %d times\n",
		r.refs, r.attempted, r.timed.Seconds(), setupRuns)
	fmt.Printf("  times in reference seconds: wall seconds x %g ms over the host's reference-kernel time\n",
		refKernelSeconds*1e3)
	if !r.hwmReset {
		fmt.Println("  note: VmHWM could not be reset, so peak_rss_mb is the running peak since start")
	}
	line := func(d metricDef) {
		m := r.metrics[d.name]
		fmt.Printf("  %-26s %14.6g %-13s median of %d (q1 %.6g, q3 %.6g, min %.6g, max %.6g)\n",
			d.name, m.Median, d.unit, m.N, m.Q1, m.Q3, m.Min, m.Max)
	}
	for _, d := range endToEnd {
		line(d)
	}
	line(iterationRSS)
	line(wallSeconds)
	line(kernelMs)
	line(errorRate)
	fmt.Printf("  %d of %d iterations failed\n", r.failed, r.attempted)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	defs := endToEnd
	if r.tr != nil {
		fmt.Printf("  tracing overhead: %+.4f s per iteration (median traced minus median untraced iteration; pipeline_s above is untraced)\n",
			r.overhead)
		fmt.Println("  per-layer metrics (sweep times are self times: span minus its decode calls, approximate with parallel workers):")
		for _, d := range perLayer {
			line(d)
		}
		defs = perLayer
	}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": r.metrics[d.name].Median, "unit": d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		return
	}
	fmt.Println(string(data))
}

// ledgerRun records the run with the host and build that produced it.
func (r *result) ledgerRun(w workload, c config) ledger.Run {
	run := ledger.Run{
		Label:      c.label,
		Workload:   w.name,
		Seed:       c.seed,
		Traced:     r.tr != nil,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Correct:    r.correct(),
		Attempted:  r.attempted,
		Failed:     r.failed,
		Metrics:    r.metrics,
	}
	run.Host, _ = os.Hostname() // an unnamed host is recorded as ""
	run.CPU = cpuModel()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				run.Commit = s.Value
			case "vcs.modified":
				run.Modified = s.Value == "true"
			}
		}
	}
	if r.tr != nil {
		o := ledger.Metric{Unit: "s", Better: "lower"}
		o.Summarize([]float64{r.overhead})
		run.Metrics["trace.overhead_s"] = o
	}
	return run
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
