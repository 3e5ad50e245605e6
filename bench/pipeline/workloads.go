package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/emu"
	"palmsim/internal/energy"
	"palmsim/internal/gremlin"
	"palmsim/internal/hotsync"
	"palmsim/internal/report"
	"palmsim/internal/sim"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
	"palmsim/internal/validate"
)

// defaultSeed reproduces the paper's session seeds and the gremlin storms
// the emulator benchmarks use; the golden digests are taken at it.
const defaultSeed = 1

// workload is one set of inputs and the pipeline stages run over them.
// Every workload runs as a closed loop in its own process: set-up, one
// untimed warm-up iteration, then timed iterations back to back.
type workload struct {
	name string
	why  string
	// iters is the timed iteration count when no time box is given.
	iters    int
	sessions func(seed int64) []user.Session
	setup    func(ctx context.Context, ss []user.Session) ([]*input, error)
	iterate  func(ctx context.Context, r *runner, in []*input) (*digest, error)
	// replay is the traced replay the iteration runs, for the traced
	// run's emission and boot/restore probes; zero when the iteration
	// runs no replay.
	replay sim.ReplayOptions
}

// input is one session ready for the pipeline: recorded (col), or, for
// design-space, already replayed and encoded (packed plus the replay's
// digest).
type input struct {
	name   string
	col    *sim.Collection
	packed []byte
	base   sessionDigest
	// decoded is the SHA-256 of the last encoding of this session that
	// decoded to its emitted stream.
	decoded [sha256.Size]byte
}

// checkEncoded checks that packed decodes to the emitted stream (refs,
// kinds). Bytes identical to an encoding that passed already decode the
// same, so only the first iteration, and any whose encoding differs, pays
// for a full decode; the time saved goes to more timed iterations.
func (s *input) checkEncoded(packed []byte, refs []uint32, kinds []uint8) string {
	sum := sha256.Sum256(packed)
	if sum == s.decoded {
		return ""
	}
	if bad := checkDecoded(s.name, packed, refs, kinds); bad != "" {
		return bad
	}
	s.decoded = sum
	return ""
}

// kindedReplay is the case study's replay: reference tracing with access
// kinds and tick marks, so the packed trace is kinded and seekable.
// packedReplay is palmsim -trace-format packed: hacks reinstalled for
// validation, addresses and tick marks only.
var (
	kindedReplay = sim.ReplayOptions{Profiling: true, CollectTrace: true, CollectKinds: true, CollectTicks: true}
	packedReplay = sim.ReplayOptions{Profiling: true, WithHacks: true, CollectTrace: true, CollectTicks: true}
)

var workloads = []workload{
	{
		name:     "case-study",
		why:      "the paper's pipeline on the four Table 1 sessions: traced replay, encode, decode into the 56-config LRU grid and 16 L1xL2 hierarchies, report",
		iters:    12,
		sessions: paperSessions(0, 1, 2, 3),
		setup:    collect,
		iterate:  caseStudy,
		replay:   kindedReplay,
	},
	{
		name:     "trace-capture",
		why:      "palmsim -trace-format packed on two busy gremlin storms: emulation, trace emission, correlation and encoding, no sweep",
		iters:    12,
		sessions: storms,
		setup:    collect,
		iterate:  traceCapture,
		replay:   packedReplay,
	},
	{
		name:     "design-space",
		why:      "kinded traces of sessions 1 and 2 through six write-policy, OPT and inclusive/exclusive hierarchy sweeps, no emulation",
		iters:    8,
		sessions: paperSessions(0, 1),
		setup:    buildTraces,
		iterate:  designSpace,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive maps (seed, base) to a fresh positive seed by splitmix64; the
// default seed keeps base.
func derive(seed, base int64) int64 {
	if seed == defaultSeed {
		return base
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(base)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// paperSessions selects Table 1 sessions. Another seed keeps each script
// and reseeds its humanized timing.
func paperSessions(idx ...int) func(seed int64) []user.Session {
	return func(seed int64) []user.Session {
		all := user.PaperSessions()
		var out []user.Session
		for _, i := range idx {
			s := all[i]
			s.Seed = derive(seed, s.Seed)
			out = append(out, s)
		}
		return out
	}
}

// storms are the two busy 1,500-event gremlin storms. Another seed keeps
// each storm's event sequence and reseeds only its humanized timing:
// reseeding the storm itself changes the work per iteration by ±25%,
// which would make runs at different seeds incomparable.
func storms(seed int64) []user.Session {
	var out []user.Session
	for _, gs := range []int64{20260808, 20260809} {
		s := gremlin.Session(gremlin.Config{Seed: gs, Events: 1500, MaxThinkTicks: 20})
		s.Seed = derive(seed, s.Seed)
		out = append(out, s)
	}
	return out
}

// collect records every session: the inputs of the replaying workloads.
func collect(ctx context.Context, ss []user.Session) ([]*input, error) {
	var in []*input
	for _, s := range ss {
		col, err := sim.Collect(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("collect %s: %w", s.Name, err)
		}
		col.Release()
		in = append(in, &input{name: s.Name, col: col})
	}
	return in, nil
}

// buildTraces records, replays and encodes every session into a kinded,
// indexed packed trace, checking that it decodes to the emitted stream.
func buildTraces(ctx context.Context, ss []user.Session) ([]*input, error) {
	in, err := collect(ctx, ss)
	if err != nil {
		return nil, err
	}
	for _, s := range in {
		pb, err := sim.Replay(ctx, s.col.Initial, s.col.Log, kindedReplay)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.name, err)
		}
		pb.Release()
		s.packed, err = dtrace.PackTraceIndexed(pb.Trace, pb.TraceKinds, pb.TraceTicks)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", s.name, err)
		}
		s.base = newSessionDigest(s.name, uint64(len(pb.Trace)), pb.Stats, hashRefs(fnvOffset, pb.Trace, pb.TraceKinds))
		if bad := checkDecoded(s.name, s.packed, pb.Trace, pb.TraceKinds); bad != "" {
			return nil, fmt.Errorf("%s", bad)
		}
		s.col = nil
	}
	return in, nil
}

// checkDecoded decodes packed and compares it with the emitted stream
// reference by reference (kinds nil means every kind is 0); it returns ""
// when they agree. Equal streams also hash equal, so the digest's
// TraceFNV stands for the decoded stream too.
func checkDecoded(name string, packed []byte, refs []uint32, kinds []uint8) string {
	src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		return fmt.Sprintf("%s: decode: %v", name, err)
	}
	buf := make([]uint32, sweep.DefaultChunkRefs)
	kbuf := make([]uint8, sweep.DefaultChunkRefs)
	pos := 0
	for {
		n, err := src.NextChunkKinded(buf, kbuf)
		for i := 0; i < n; i, pos = i+1, pos+1 {
			if pos >= len(refs) {
				return fmt.Sprintf("%s: decoded more than the %d emitted references", name, len(refs))
			}
			var k uint8
			if kinds != nil {
				k = kinds[pos]
			}
			if buf[i] != refs[pos] || kbuf[i] != k {
				return fmt.Sprintf("%s: decoded reference %d differs from the emitted one", name, pos)
			}
		}
		if err != nil && err != io.EOF {
			return fmt.Sprintf("%s: decode: %v", name, err)
		}
		if n == 0 || err == io.EOF {
			break
		}
	}
	if pos != len(refs) {
		return fmt.Sprintf("%s: decoded %d references, emitted %d", name, pos, len(refs))
	}
	return ""
}

// runner carries one iteration's timing, tracing and correctness state.
type runner struct {
	tr       *tracer // nil on untraced iterations
	host     *hostSpeed
	clock    stopwatch
	problems []string
}

// stage samples the host's speed, outside the timed seconds, and opens
// the span of the pipeline stage that follows.
func (r *runner) stage(name string) {
	r.clock.pause()
	r.host.sample()
	r.clock.resume()
	r.tr.start(name)
}

func (r *runner) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// capture is the front half of the pipeline on one recorded session:
// traced replay, the §3 correlations when the replay reinstalls the
// hacks (as palmsim does), and the PALMPKD1+PALMIDX1 encode.
func (r *runner) capture(ctx context.Context, s *input, opt sim.ReplayOptions) (sessionDigest, []byte, error) {
	r.stage("sim.replay")
	pb, err := sim.Replay(ctx, s.col.Initial, s.col.Log, opt)
	r.tr.finish()
	if err != nil {
		return sessionDigest{}, nil, fmt.Errorf("replay: %w", err)
	}
	pb.Release()
	var logRep validate.LogReport
	var stateRep validate.StateReport
	if opt.WithHacks {
		r.stage("validate.correlate")
		logRep = validate.CorrelateLogs(s.col.Log, pb.Log)
		stateRep = validate.CorrelateStates(s.col.Final, pb.Final)
		r.tr.finish()
	}
	r.stage("dtrace.encode")
	packed, err := dtrace.PackTraceIndexed(pb.Trace, pb.TraceKinds, pb.TraceTicks)
	r.tr.finish()
	if err != nil {
		return sessionDigest{}, nil, fmt.Errorf("encode: %w", err)
	}

	r.clock.pause()
	defer r.clock.resume()
	refs := uint64(len(pb.Trace))
	r.tr.count("sim.instructions", float64(pb.Stats.Machine.Instructions))
	r.tr.count("sim.refs", float64(refs))
	r.tr.count("dtrace.encode_refs", float64(refs))
	r.tr.count("dtrace.bytes", float64(len(packed)))
	// The two untimed checks run on both cores, so a time-boxed run
	// spends more of its time on timed work.
	var traceFNV uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		traceFNV = hashRefs(fnvOffset, pb.Trace, pb.TraceKinds)
	}()
	if bad := s.checkEncoded(packed, pb.Trace, pb.TraceKinds); bad != "" {
		r.failf("%s", bad)
	}
	wg.Wait()
	sd := newSessionDigest(s.name, refs, pb.Stats, traceFNV)
	if opt.WithHacks {
		sd.Correlation = map[string]string{}
		flatten("log", reflect.ValueOf(logRep), sd.Correlation)
		flatten("state", reflect.ValueOf(stateRep), sd.Correlation)
		sd.Correlation["log.ok"] = fmt.Sprint(logRep.OK())
		sd.Correlation["state.ok"] = fmt.Sprint(stateRep.OK())
		if !logRep.OK() || !stateRep.OK() {
			r.failf("%s: correlation failed: log %s; state %s", s.name, logRep, stateRep)
		}
	}
	return sd, packed, nil
}

// source opens a packed trace for one sweep, timed when tracing.
func (r *runner) source(packed []byte) (sweep.Source, error) {
	src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		return nil, err
	}
	return r.tr.wrap(src), nil
}

// sweepConfigs streams packed through one configuration sweep with the
// default options, as the span sweep.<plan>.
func (r *runner) sweepConfigs(ctx context.Context, plan string, cfgs []cache.Config, packed []byte, refs uint64) ([]cache.Result, error) {
	r.stage("sweep." + plan)
	src, err := r.source(packed)
	var res []cache.Result
	if err == nil {
		res, err = sweep.Run(ctx, cfgs, src, sweep.Options{})
	}
	r.tr.finish()
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", plan, err)
	}
	r.clock.pause()
	defer r.clock.resume()
	if r.tr != nil {
		info, err := sweep.Plan(sweep.Options{}, cfgs)
		if err != nil {
			return nil, err
		}
		r.countPlan(info, refs)
	}
	r.problems = append(r.problems, checkAccesses(plan, refs, res)...)
	r.problems = append(r.problems, checkInclusion(plan, res)...)
	return res, nil
}

// sweepHierarchies is sweepConfigs for an L1×L2 hierarchy grid.
func (r *runner) sweepHierarchies(ctx context.Context, plan string, hs []cache.Hierarchy, packed []byte, refs uint64) ([]cache.HierarchyResult, error) {
	r.stage("sweep." + plan)
	src, err := r.source(packed)
	var res []cache.HierarchyResult
	if err == nil {
		res, err = sweep.RunHierarchies(ctx, hs, src, sweep.Options{})
	}
	r.tr.finish()
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", plan, err)
	}
	r.clock.pause()
	defer r.clock.resume()
	if r.tr != nil {
		info, err := sweep.PlanHierarchies(sweep.Options{}, hs)
		if err != nil {
			return nil, err
		}
		r.countPlan(info, refs)
	}
	l1 := make([]cache.Result, len(res))
	for i, hr := range res {
		l1[i] = hr.L1()
	}
	r.problems = append(r.problems, checkAccesses(plan, refs, l1)...)
	return res, nil
}

func (r *runner) countPlan(info sweep.PlanInfo, refs uint64) {
	r.tr.count("sweep.ref_configs", float64(refs)*float64(info.Configs))
	r.tr.count("sweep.units", float64(info.Units))
	r.tr.count("sweep.fallback_configs", float64(info.FallbackConfigs))
	r.tr.count("sweep.shared_l1_groups", float64(info.SharedL1Groups))
	r.tr.count("sweep.fused_hierarchies", float64(info.FusedHierarchies))
}

// l1l2Grid is bench_test.go's hierarchy grid: two L1 geometries, each
// paired with four L2 sizes at two associativities.
func l1l2Grid(content cache.ContentPolicy, write cache.WritePolicy, l2Line int) []cache.Hierarchy {
	var hs []cache.Hierarchy
	for _, l1 := range []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: cache.LRU, Write: write},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: write},
	} {
		for _, kb := range []int{16, 32, 64, 128} {
			for _, ways := range []int{2, 8} {
				l2 := cache.Config{SizeBytes: kb << 10, LineBytes: l2Line, Ways: ways, Policy: cache.LRU, Write: write}
				hs = append(hs, cache.Hierarchy{Levels: []cache.Config{l1, l2}, Content: content})
			}
		}
	}
	return hs
}

// policyGrid is the 56-configuration paper grid under another
// replacement and write policy.
func policyGrid(pol cache.Policy, write cache.WritePolicy) []cache.Config {
	cfgs := cache.PaperSweep()
	for i := range cfgs {
		cfgs[i].Policy, cfgs[i].Write = pol, write
	}
	return cfgs
}

func caseStudy(ctx context.Context, r *runner, in []*input) (*digest, error) {
	d := &digest{}
	for _, s := range in {
		r.tr.setSession(s.name)
		sd, packed, err := r.capture(ctx, s, kindedReplay)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		lru, err := r.sweepConfigs(ctx, "lru56", cache.PaperSweep(), packed, sd.Refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		hier, err := r.sweepHierarchies(ctx, "hier16", l1l2Grid(cache.NonInclusive, cache.WriteIgnore, 32), packed, sd.Refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		// The rendered tables are discarded: the stage is timed, and the
		// digest covers the numbers they are computed from.
		r.stage("report")
		_ = reportRows(lru, hier)
		r.tr.finish()
		sd.Results["lru56"] = hashResults(lru)
		sd.Results["hier16"] = hashResults(hier)
		d.Sessions = append(d.Sessions, sd)
	}
	return d, nil
}

// reportRows renders what cachesweep prints for the two sweeps: per
// configuration miss rate, Teff and energy saving, then the
// energy/latency Pareto fronts.
func reportRows(results []cache.Result, hres []cache.HierarchyResult) string {
	model := energy.Default()
	t := report.New("56-configuration sweep", "config", "miss rate", "Teff (Eq.2)", "Teff exact", "mem energy saved")
	pts := make([]report.ParetoPoint, len(results))
	for i, r := range results {
		t.Addf("%s\t%s\t%.3f\t%.3f\t%s", r.Config, report.Pct(r.MissRate()), r.TeffPaper(), r.TeffExact(),
			report.Pct(model.MemorySaving(r)))
		pts[i] = report.ParetoPoint{Label: r.Config.String(), X: model.MemoryPerAccessNJ(r), Y: r.TeffWriteAware()}
	}
	ht := report.New("hierarchy sweep", "hierarchy", "L1 miss", "global miss", "Teff exact", "mem energy saved")
	hpts := make([]report.ParetoPoint, len(hres))
	for i, r := range hres {
		ht.Addf("%s\t%s\t%s\t%.3f\t%s", r.Hierarchy, report.Pct(r.L1().MissRate()), report.Pct(r.MissRate()),
			r.TeffExact(), report.Pct(model.HierarchyMemorySaving(r)))
		hpts[i] = report.ParetoPoint{Label: r.Hierarchy.String(), X: model.HierarchyMemoryPerAccessNJ(r), Y: r.TeffWriteAware()}
	}
	out := t.String() + ht.String()
	for _, front := range [][]report.ParetoPoint{report.ParetoFront(pts), report.ParetoFront(hpts)} {
		pt := report.New("energy/latency Pareto front", "point", "mem nJ/access", "Teff +writes")
		for _, p := range front {
			pt.Addf("%s\t%.4f\t%.4f", p.Label, p.X, p.Y)
		}
		out += pt.String()
	}
	return out
}

func traceCapture(ctx context.Context, r *runner, in []*input) (*digest, error) {
	d := &digest{}
	for _, s := range in {
		r.tr.setSession(s.name)
		sd, _, err := r.capture(ctx, s, packedReplay)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		d.Sessions = append(d.Sessions, sd)
	}
	return d, nil
}

// designPlans are design-space's six sweeps. Every plan is write-back or
// write-through, so each streams (address, kind) pairs; exclusive
// hierarchies need equal line sizes, so both hierarchy plans use 16-byte
// L2 lines.
var designPlans = []struct {
	name string
	cfgs []cache.Config
	hs   []cache.Hierarchy
}{
	{name: "lru_wb", cfgs: policyGrid(cache.LRU, cache.WriteBack)},
	{name: "fifo_wt", cfgs: policyGrid(cache.FIFO, cache.WriteThrough)},
	{name: "plru_wb", cfgs: policyGrid(cache.PLRU, cache.WriteBack)},
	{name: "opt", cfgs: policyGrid(cache.OPT, cache.WriteBack)},
	{name: "incl_wb", hs: l1l2Grid(cache.Inclusive, cache.WriteBack, 16)},
	{name: "excl_wb", hs: l1l2Grid(cache.Exclusive, cache.WriteBack, 16)},
}

func designSpace(ctx context.Context, r *runner, in []*input) (*digest, error) {
	d := &digest{}
	for _, s := range in {
		r.tr.setSession(s.name)
		sd := s.base.clone()
		for _, p := range designPlans {
			var res any
			var err error
			if p.cfgs != nil {
				res, err = r.sweepConfigs(ctx, p.name, p.cfgs, s.packed, sd.Refs)
			} else {
				res, err = r.sweepHierarchies(ctx, p.name, p.hs, s.packed, sd.Refs)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			sd.Results[p.name] = hashResults(res)
		}
		d.Sessions = append(d.Sessions, sd)
	}
	return d, nil
}

// probes measures what the timed iterations cannot separate: the cost of
// trace emission (the workload's traced replay minus an untraced replay
// of the same log) and of machine set-up (emu.New, Boot and the HotSync
// restore). Each returns per-iteration seconds summed over the sessions.
func probes(ctx context.Context, w workload, in []*input) (emit, bootRestore float64, err error) {
	if !w.replay.CollectTrace {
		return 0, 0, nil
	}
	untraced := w.replay
	untraced.CollectTrace, untraced.CollectKinds, untraced.CollectTicks = false, false, false
	for _, s := range in {
		var times [2]float64
		for i, opt := range []sim.ReplayOptions{w.replay, untraced} {
			t0 := time.Now()
			pb, err := sim.Replay(ctx, s.col.Initial, s.col.Log, opt)
			times[i] = time.Since(t0).Seconds()
			if err != nil {
				return 0, 0, err
			}
			pb.Release()
		}
		emit += times[0] - times[1]

		t0 := time.Now()
		m, err := emu.New(emu.Options{Profiling: w.replay.Profiling, TraceNative: true})
		if err == nil {
			err = m.Boot()
		}
		if err == nil {
			err = hotsync.Restore(m, s.col.Initial)
		}
		bootRestore += time.Since(t0).Seconds()
		if m != nil {
			m.Release()
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return emit, bootRestore, nil
}
