package exp

import (
	"context"
	"fmt"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
	"palmsim/internal/sim"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
	"palmsim/internal/validate"
)

// --- E3: Table 1 — volunteer user session data -----------------------------

// SessionRow is one Table 1 line: events, reference counts, elapsed time
// and the cacheless average effective memory access time (Equation 3).
// The counts and Equation 3 cover the replay's trace, the references the
// case study's sweeps see.
type SessionRow struct {
	Name           string
	Events         int
	RAMRefs        uint64
	FlashRefs      uint64
	ElapsedSeconds float64
	AvgMemCycles   float64
}

// SessionRun is one session's trace-producing replay. The trace is
// Play.Trace; Play.TraceKinds holds each entry's access kind, so session
// traces can feed write-policy (kinded) sweeps. Both machines are released:
// Play.M is nil.
type SessionRun struct {
	Row  SessionRow
	Play *sim.Playback
}

// RunSession collects one session and replays it with trace collection —
// the full §2 pipeline for one Table 1 row. Access kinds are collected
// alongside addresses so the trace works for write-policy sweeps and
// Dinero export without a second replay. It returns both machines' memory
// images to the pool, so a batch of sessions holds no machine between
// runs.
func RunSession(ctx context.Context, s user.Session) (*SessionRun, error) {
	col, err := sim.Collect(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", s.Name, err)
	}
	// The replay needs only the collection's extracted copies, so its
	// machine can build on the collection machine's memory image.
	col.Release()
	opts := sim.DefaultReplayOptions()
	opts.CollectKinds = true
	play, err := sim.Replay(ctx, col.Initial, col.Log, opts)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", s.Name, err)
	}
	play.Release()
	// Count the traced references, the ones every sweep sees: the
	// replay's bus counters also include boot and the state restore.
	var refs bus.Stats
	for _, addr := range play.Trace {
		if addr-bus.ROMBase < bus.ROMSize {
			refs.FlashRefs++
		} else {
			refs.RAMRefs++
		}
	}
	elapsed := float64(col.Log.ElapsedTicks()) / 100.0
	row := SessionRow{
		Name:           s.Name,
		Events:         col.Log.Len(),
		RAMRefs:        refs.RAMRefs,
		FlashRefs:      refs.FlashRefs,
		ElapsedSeconds: elapsed,
		AvgMemCycles:   refs.AvgMemCycles(),
	}
	return &SessionRun{Row: row, Play: play}, nil
}

// Table1 runs all four paper sessions.
func Table1(ctx context.Context) ([]*SessionRun, error) {
	var out []*SessionRun
	for _, s := range user.PaperSessions() {
		run, err := RunSession(ctx, s)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// --- E4/E5: Figures 5 and 6 — the cache case study -------------------------

// CacheStudy replays one session and sweeps the 56 paper configurations
// over its memory-reference trace, one worker per core.
func CacheStudy(ctx context.Context, s user.Session) (*SessionRun, []cache.Result, error) {
	run, err := RunSession(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	results, err := sweep.RunTrace(ctx, cache.PaperSweep(), run.Play.Trace, sweep.Options{})
	if err != nil {
		return nil, nil, err
	}
	return run, results, nil
}

// --- E7/E8: §3 validation ---------------------------------------------------

// ValidationResult bundles both §3 correlations for one session.
type ValidationResult struct {
	Session user.Session
	Log     validate.LogReport
	State   validate.StateReport
}

// ValidateSession collects a session from a factory-fresh boot, replays it
// with hacks installed, and runs the §3.3 activity-log correlation and §3.4
// final-state correlation: ValidateChain over one workload.
func ValidateSession(ctx context.Context, s user.Session) (*ValidationResult, error) {
	res, err := ValidateChain(ctx, []user.Session{s})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ValidateChain reproduces the paper's §3.1 setup exactly: the three test
// workloads run in sequence, each starting from the previous workload's
// final state ("the initial state of the second test workload is the same
// as the final state for the first"), and each is replayed and validated
// independently.
func ValidateChain(ctx context.Context, workloads []user.Session) ([]*ValidationResult, error) {
	var prior *sim.State
	var out []*ValidationResult
	for _, w := range workloads {
		col, err := sim.CollectFrom(ctx, prior, w)
		if err != nil {
			return nil, fmt.Errorf("collect %s: %w", w.Name, err)
		}
		play, err := sim.Replay(ctx, col.Initial, col.Log, sim.ReplayOptions{
			Profiling: true,
			WithHacks: true,
		})
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", w.Name, err)
		}
		out = append(out, &ValidationResult{
			Session: w,
			Log:     validate.CorrelateLogs(col.Log, play.Log),
			State:   validate.CorrelateStates(col.Final, play.Final),
		})
		prior = col.Final // a captured copy: survives the machines below
		// The correlations only consume extracted copies; recycle both
		// machines' memory images for the next workload.
		col.Release()
		play.Release()
	}
	return out, nil
}

// ValidationWorkloads returns the §3.2 three test workloads: two scripted
// sessions and a game of Puzzle. Each workload's initial state is the
// previous one's final state in the paper; ValidateChain reproduces that.
func ValidationWorkloads() []user.Session {
	return []user.Session{
		{Name: "workload1-script", Seed: 11, Script: func(b *user.Builder) {
			b.IdleSeconds(2)
			b.WriteMemo("first scripted workload")
			b.IdleSeconds(5)
			b.BrowseAddresses(3)
			b.IdleSeconds(2)
			b.Notify(1)
		}},
		{Name: "workload2-script", Seed: 22, Script: func(b *user.Builder) {
			b.IdleSeconds(2)
			b.WriteMemo("second scripted workload with more text to enter")
			b.IdleSeconds(3)
			b.WriteMemo("and a second memo")
			b.IdleSeconds(2)
			b.Notify(1)
		}},
		{Name: "workload3-puzzle", Seed: 33, Script: func(b *user.Builder) {
			b.IdleSeconds(2)
			b.PlayPuzzle(12)
			b.IdleSeconds(2)
			b.Notify(1)
		}},
	}
}

// ReplayWithOpcodes collects a session and replays it with the opcode
// histogram enabled (the §2.4.2 opcode statistic).
func ReplayWithOpcodes(ctx context.Context, s user.Session) (*sim.Playback, error) {
	col, err := sim.Collect(ctx, s)
	if err != nil {
		return nil, err
	}
	defer col.Release()
	return sim.Replay(ctx, col.Initial, col.Log, sim.ReplayOptions{
		Profiling:    true,
		CountOpcodes: true,
	})
}
