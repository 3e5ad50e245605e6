package exp

import (
	"context"

	"palmsim/internal/cache"
	"palmsim/internal/energy"
	"palmsim/internal/sim"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

// --- Profiling-completeness ablation (§2.4.2) ------------------------------

// ProfilingAblation quantifies the paper's argument for enabling POSE's
// Profiling mode: "If Profiling were not enabled, the emulator will have
// skipped executing several instructions that a physical device would
// have, invalidating the collected data." We replay the same session with
// the ROM TrapDispatcher executing (profiling on — complete traces) and
// with the native dispatch shortcut (profiling off — truncated traces),
// and compare both the trace sizes and the cache results they produce.
type ProfilingAblation struct {
	OnRefs  int
	OffRefs int
	// Results are indexed identically over the paper sweep.
	On  []cache.Result
	Off []cache.Result
}

// RunProfilingAblation collects a session once and replays it both ways.
func RunProfilingAblation(ctx context.Context, s user.Session) (*ProfilingAblation, error) {
	col, err := sim.Collect(ctx, s)
	if err != nil {
		return nil, err
	}
	col.Release() // the replays need only the collection's copies
	on, err := sim.Replay(ctx, col.Initial, col.Log, sim.ReplayOptions{Profiling: true, CollectTrace: true})
	if err != nil {
		return nil, err
	}
	on.Release()
	off, err := sim.Replay(ctx, col.Initial, col.Log, sim.ReplayOptions{Profiling: false, CollectTrace: true})
	if err != nil {
		return nil, err
	}
	off.Release()
	cfgs := cache.PaperSweep()
	rOn, err := sweep.RunTrace(ctx, cfgs, on.Trace, sweep.Options{})
	if err != nil {
		return nil, err
	}
	rOff, err := sweep.RunTrace(ctx, cfgs, off.Trace, sweep.Options{})
	if err != nil {
		return nil, err
	}
	return &ProfilingAblation{
		OnRefs:  len(on.Trace),
		OffRefs: len(off.Trace),
		On:      rOn,
		Off:     rOff,
	}, nil
}

// --- Energy study (§4.4's battery-consumption claim) -----------------------

// EnergyRow is one cache configuration's energy estimate for a session.
type EnergyRow struct {
	Config        cache.Config
	MemorySaving  float64 // fraction of memory-system energy saved
	TotalNoCacheJ float64
	TotalCachedJ  float64
}

// EnergyStudy estimates per-configuration energy for a session: the
// paper's closing claim is that a small cache "can greatly reduce the
// average effective memory access time and potentially reduce the battery
// consumption".
func EnergyStudy(ctx context.Context, s user.Session) ([]EnergyRow, error) {
	run, results, err := CacheStudy(ctx, s)
	if err != nil {
		return nil, err
	}
	model := energy.Default()
	active := run.Play.Stats.Machine.ActiveCycles
	doze := float64(run.Play.Stats.Machine.SkippedCycles) / 33e6
	var out []EnergyRow
	for _, r := range results {
		base := model.NoCache(r.RAMRefs, r.FlashRefs, active, doze)
		with := model.WithCache(r, active, doze)
		out = append(out, EnergyRow{
			Config:        r.Config,
			MemorySaving:  model.MemorySaving(r),
			TotalNoCacheJ: base.TotalJ(),
			TotalCachedJ:  with.TotalJ(),
		})
	}
	return out, nil
}

// --- Write-policy extension -------------------------------------------------

// WritePolicyRow compares write-through and write-back memory traffic for
// one configuration over a session's kind-aware trace. Write-through
// (no-write-allocate) fills a line per miss and sends every write to
// memory as one 68000 word; write-back (write-allocate) fills a line per
// miss and writes one back per dirty eviction.
type WritePolicyRow struct {
	Config            cache.Config
	MissRate          float64
	WriteThroughBytes uint64
	WriteBackBytes    uint64
}

// WritePolicyStudy runs a session (RunSession: its replay records access
// kinds) and evaluates both write policies over a representative subset of
// the sweep (direct-mapped and 4-way at each size, 32-byte lines).
func WritePolicyStudy(ctx context.Context, s user.Session) ([]WritePolicyRow, error) {
	run, err := RunSession(ctx, s)
	if err != nil {
		return nil, err
	}
	// One write-back sweep yields both policies' traffic: replacement is
	// write-allocate either way, so misses, writes and dirty evictions
	// all come from the same simulation.
	var cfgs []cache.Config
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		for _, ways := range []int{1, 4} {
			cfgs = append(cfgs, cache.Config{SizeBytes: size, LineBytes: 32, Ways: ways, Policy: cache.LRU, Write: cache.WriteBack})
		}
	}
	results, err := sweep.Run(ctx, cfgs, sweep.NewKindedSliceSource(run.Play.Trace, run.Play.TraceKinds), sweep.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]WritePolicyRow, len(results))
	for i, r := range results {
		line := uint64(r.Config.LineBytes)
		cfg := r.Config
		cfg.Write = cache.WriteIgnore // the row names the geometry both policies share
		out[i] = WritePolicyRow{
			Config:            cfg,
			MissRate:          r.MissRate(),
			WriteThroughBytes: r.Misses*line + r.Writes*2,
			WriteBackBytes:    (r.Misses + r.Writebacks) * line,
		}
	}
	return out, nil
}
