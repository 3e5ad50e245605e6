// Package sim orchestrates the paper's methodology end to end: Collect
// records a scripted session on an instrumented simulated handheld
// (S_user), Replay plays the activity log back on a fresh machine
// (S_emulated). The root palmsim package re-exports this API.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"palmsim/internal/alog"
	"palmsim/internal/bus"
	"palmsim/internal/dtrace"
	"palmsim/internal/emu"
	"palmsim/internal/hack"
	"palmsim/internal/hotsync"
	"palmsim/internal/hw"
	"palmsim/internal/m68k"
	"palmsim/internal/obs"
	"palmsim/internal/palmos"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

// Re-exported types, so downstream users need only this package.
type (
	// Session is a scripted synthetic-user workload.
	Session = user.Session
	// Log is an activity log.
	Log = alog.Log
	// State is a HotSync-style device state capture.
	State = hotsync.State
	// Machine is the simulated handheld.
	Machine = emu.Machine
)

// RunStats aggregates per-run statistics across the machine layers.
type RunStats struct {
	Bus     bus.Stats
	Machine emu.Stats
	Kernel  palmos.Stats

	// ElapsedSeconds is emulated wall-clock time.
	ElapsedSeconds float64
}

// AvgMemCycles is Equation 3 over the run's reference mix.
func (s RunStats) AvgMemCycles() float64 { return s.Bus.AvgMemCycles() }

// Collection is the result of recording a session on the instrumented
// device (the paper's S_user side).
type Collection struct {
	Session Session
	Initial *State
	Final   *State
	Log     *Log
	Stats   RunStats

	// M is the machine after the session, for further inspection.
	M *Machine
}

// Release returns the collection machine's pooled memory image to emu
// (see Playback.Release). M must not be used afterwards.
func (c *Collection) Release() {
	if c.M != nil {
		c.M.Release()
		c.M = nil
	}
}

// settleTicks is the margin run after the last scheduled input.
const settleTicks = 200

// Collect boots an instrumented device, captures the initial state,
// replays the synthetic user's inputs in simulated real time and returns
// the activity log plus final state — the §2 collection pipeline. The
// context is polled at tick-sync granularity: cancelling it stops the
// run within one emulated tick with a simerr.ErrCanceled error.
func Collect(ctx context.Context, s Session) (*Collection, error) {
	return CollectFrom(ctx, nil, s)
}

// CollectFrom is Collect starting from a previously captured device state,
// enabling the paper's §3.1 chained workloads: "the initial state of the
// second test workload is the same as the final state for the first". A
// nil prior state collects from a factory-fresh boot.
func CollectFrom(ctx context.Context, prior *State, s Session) (*Collection, error) {
	return CollectObserved(ctx, prior, s, nil)
}

// CollectObserved is CollectFrom with the collection machine bound to a
// metrics registry (nil behaves exactly like CollectFrom).
func CollectObserved(ctx context.Context, prior *State, s Session, reg *obs.Registry) (*Collection, error) {
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	m.BindContext(ctx)
	m.RegisterObs(reg)
	if err := m.Boot(); err != nil {
		return nil, err
	}
	if prior != nil {
		if err := hotsync.Restore(m, prior); err != nil {
			return nil, err
		}
		// The prior session's activity log was transferred off-device;
		// start this session with a fresh one (PrepareDevice recreates it).
		if _, ok := m.Store.Lookup(palmos.ActivityLogDB); ok {
			if err := m.Store.Delete(palmos.ActivityLogDB); err != nil {
				return nil, err
			}
		}
	}
	hacks := hack.NewManager(m)
	if err := hacks.InstallAllHacks(); err != nil {
		return nil, err
	}
	initial, err := hotsync.Backup(m)
	if err != nil {
		return nil, err
	}

	start := m.Ticks() + 100
	schedule := s.Build(start)
	if len(schedule) == 0 {
		return nil, errors.New("palmsim: session produced no inputs")
	}
	for _, in := range schedule {
		if err := m.Schedule(in.Tick, in.Ev); err != nil {
			return nil, err
		}
	}
	end := schedule[len(schedule)-1].Tick + settleTicks
	if err := m.RunUntilTick(end); err != nil {
		return nil, err
	}
	if err := m.RunUntilIdle(2_000_000_000); err != nil {
		return nil, err
	}

	logDB, err := m.Store.Export(palmos.ActivityLogDB)
	if err != nil {
		return nil, err
	}
	log, err := alog.FromDatabase(logDB)
	if err != nil {
		return nil, err
	}
	final, err := hotsync.Backup(m)
	if err != nil {
		return nil, err
	}
	return &Collection{
		Session: s,
		Initial: initial,
		Final:   final,
		Log:     log,
		Stats:   statsOf(m),
		M:       m,
	}, nil
}

// ReplayOptions configures playback.
type ReplayOptions struct {
	// Profiling mirrors POSE's switch (§2.4.2): on, the ROM
	// TrapDispatcher executes so traces are complete. Default true.
	Profiling bool

	// WithHacks reinstalls the five hacks during playback, as the §3.3
	// activity-log validation does.
	WithHacks bool

	// CollectTrace records the address of every RAM/flash reference.
	CollectTrace bool

	// CollectKinds additionally records each reference's access kind
	// (read/write/fetch), enabling Dinero-format export.
	CollectKinds bool

	// CountOpcodes allocates the opcode histogram.
	CountOpcodes bool

	// TraceInstructions records the PC of every retired instruction —
	// the complete instruction trace of the paper's CITCAT lineage,
	// covering interrupt handlers, the trap dispatcher and user code.
	TraceInstructions bool

	// CollectTicks additionally records sparse tick marks — the ordinal
	// of the first trace reference at each emulated tick — into
	// Playback.TraceTicks. dtrace.PackTraceIndexed folds them into the
	// PALMIDX1 footer as each block's starting tick. Off (the default)
	// adds no work to the trace sink.
	CollectTicks bool

	// SeekTick, when nonzero, fast-forwards playback: the machine runs
	// untraced until the emulated tick counter reaches this value and
	// only then attaches the trace sink, so Trace (and TraceTicks)
	// covers ticks >= SeekTick. The prefix is still emulated — replay
	// correctness needs every instruction — but skips all trace memory
	// and per-reference sink work.
	SeekTick uint32

	// Obs, when non-nil, binds the replay machine's metrics into this
	// registry (see emu.RegisterObs). Nil — the default, and what every
	// benchmark uses — keeps replay on the uninstrumented path.
	Obs *obs.Registry

	// Dispatch selects the CPU execution engine: "", "auto" or "spec"
	// (the specialized superblock engine, the fast path) or "legacy" (the
	// reference interpreter), so the fast path can be cross-checked in
	// the field.
	Dispatch string
}

// DefaultReplayOptions returns the configuration the paper's case study
// used: profiling on, traces on, hacks out.
func DefaultReplayOptions() ReplayOptions {
	return ReplayOptions{Profiling: true, CollectTrace: true}
}

// Playback is the result of replaying an activity log (the S_emulated
// side).
type Playback struct {
	Final *State
	// Log is the activity log recorded during playback when WithHacks
	// was set (for §3.3 correlation).
	Log *Log
	// Trace is the memory-reference address stream (RAM + flash).
	Trace []uint32
	// TraceKinds holds each Trace entry's access kind (values of
	// m68k.Access) when CollectKinds was set.
	TraceKinds []uint8
	// OpcodeHist is the 65536-entry executed-opcode histogram.
	OpcodeHist []uint64
	// InstrTrace is the PC stream of every retired instruction when
	// TraceInstructions was set.
	InstrTrace []uint32
	// TraceTicks holds sparse tick marks over Trace when CollectTicks
	// was set: one entry per emulated tick that recorded references.
	TraceTicks []dtrace.TickMark
	Stats      RunStats
	M          *Machine
}

// Release returns the playback machine's pooled memory image to emu for
// reuse and drops the machine. The extracted results (Final, Log, Trace,
// Stats, ...) stay valid — they are copies — but M must not be inspected
// afterwards. Batch drivers that replay many logs should call this after
// consuming each Playback; one-shot callers may simply let the GC work.
func (p *Playback) Release() {
	if p.M != nil {
		p.M.Release()
		p.M = nil
	}
}

// chunkRefs is the trace sink's chunk size, the sweep's chunk: the unit a
// replay will hand to a streaming consumer.
const chunkRefs = sweep.DefaultChunkRefs

// traceSink collects RAM/flash reference addresses (and, optionally, each
// access's kind for Dinero export, plus sparse tick marks for indexing)
// into fixed-size chunks that never grow or move; finish assembles them
// into the Playback's slices once the replay ends.
type traceSink struct {
	addrs []uint32 // the chunk being filled, chunk entries long
	kinds []uint8  // its kinds, when want
	n     int      // entries of addrs (and kinds) filled
	want  bool
	chunk int

	fullAddrs [][]uint32 // filled chunks, in order
	fullKinds [][]uint8

	// marks drive CollectTicks: one TickMark per emulated tick that
	// records references, the tick being cycles/CyclesPerTick at the
	// reference. A reference whose cycle count lies in [tickStart,
	// tickEnd), the span of the tick last seen, is at that tick, so the
	// per-reference cost is one load and two compares; the division runs
	// only when the clock has left the span.
	mark               bool
	cycles             *uint64
	tickStart, tickEnd uint64
	lastTick           uint32
	marks              []dtrace.TickMark
}

func newTraceSink(m *Machine, opt ReplayOptions, chunk int) *traceSink {
	return &traceSink{want: opt.CollectKinds, chunk: chunk, mark: opt.CollectTicks, cycles: &m.CPU.Cycles}
}

// ref is the machine's bus.Tracer: it keeps the RAM and flash references
// (bus.Mapped).
func (t *traceSink) ref(addr uint32, _ m68k.Size, kind m68k.Access) {
	if !bus.Mapped(addr) {
		return
	}
	if t.mark {
		if c := *t.cycles; c < t.tickStart || c >= t.tickEnd {
			t.noteTick(c)
		}
	}
	if t.n == len(t.addrs) {
		t.nextChunk()
	}
	t.addrs[t.n] = addr
	if t.want {
		t.kinds[t.n] = uint8(kind)
	}
	t.n++
}

// noteTick handles a reference at cycle count c outside the last tick's
// span: it marks the reference when its tick differs from the previous
// reference's, or when it is the first.
func (t *traceSink) noteTick(c uint64) {
	tk := c / hw.CyclesPerTick
	t.tickStart, t.tickEnd = tk*hw.CyclesPerTick, (tk+1)*hw.CyclesPerTick
	if uint32(tk) != t.lastTick || len(t.marks) == 0 {
		ref := uint64(len(t.fullAddrs)*t.chunk + t.n)
		t.marks = append(t.marks, dtrace.TickMark{Ref: ref, Tick: uint64(uint32(tk))})
		t.lastTick = uint32(tk)
	}
}

// nextChunk retires the filled chunk, if any, and starts an empty one.
func (t *traceSink) nextChunk() {
	if t.addrs != nil {
		t.fullAddrs = append(t.fullAddrs, t.addrs)
		t.fullKinds = append(t.fullKinds, t.kinds)
	}
	t.addrs, t.n = make([]uint32, t.chunk), 0
	if t.want {
		t.kinds = make([]uint8, t.chunk)
	}
}

// finish assembles the chunks into one address slice and, when kinds
// were wanted, one kind slice (both nil for an empty trace), and drops
// the chunks.
func (t *traceSink) finish() (addrs []uint32, kinds []uint8) {
	addrs = slices.Concat(append(t.fullAddrs, t.addrs[:t.n])...)
	if t.want {
		kinds = slices.Concat(append(t.fullKinds, t.kinds[:t.n])...)
	}
	t.addrs, t.kinds, t.n, t.fullAddrs, t.fullKinds = nil, nil, 0, nil, nil
	return addrs, kinds
}

// Replay restores the initial state into a fresh machine and replays the
// activity log per §2.4.2: synchronous events are injected when the
// emulated tick counter reaches their timestamps; KeyCurrentState and
// SysRandom are serviced from the logged queues.
func Replay(ctx context.Context, initial *State, log *Log, opt ReplayOptions) (*Playback, error) {
	dispatch, err := m68k.ParseDispatch(opt.Dispatch)
	if err != nil {
		return nil, err
	}
	m, err := emu.New(emu.Options{Profiling: opt.Profiling, TraceNative: true, CountOpcodes: opt.CountOpcodes, Dispatch: dispatch})
	if err != nil {
		return nil, err
	}
	m.BindContext(ctx)
	// Bound before Boot so the tick-sync counters cover the whole run;
	// func metrics rebind, superseding any earlier machine (e.g. the
	// collection pass) in the same registry.
	m.RegisterObs(opt.Obs)
	var instrTrace []uint32
	if opt.TraceInstructions {
		// Installed before boot so the trace is complete from reset, as
		// CITCAT defines it.
		m.CPU.OnExec = func(pc uint32, opcode uint16) {
			instrTrace = append(instrTrace, pc)
		}
	}
	if err := m.Boot(); err != nil {
		return nil, err
	}
	if err := hotsync.Restore(m, initial); err != nil {
		return nil, err
	}
	if opt.WithHacks {
		hacks := hack.NewManager(m)
		if err := hacks.InstallAllHacks(); err != nil {
			return nil, err
		}
	}

	var sink *traceSink
	if opt.CollectTrace || opt.CollectKinds || opt.CollectTicks {
		sink = newTraceSink(m, opt, chunkRefs)
		if opt.SeekTick == 0 {
			m.SetTracer(sink.ref)
		}
	}
	end, err := scheduleLog(m, log)
	if err != nil {
		return nil, err
	}
	if sink != nil && opt.SeekTick > 0 {
		// Fast-forward: emulate the prefix untraced, then attach the
		// sink. The seek point may lie past the last scheduled event;
		// the later RunUntilTick is then a no-op.
		if err := m.RunUntilTick(opt.SeekTick); err != nil {
			return nil, err
		}
		m.SetTracer(sink.ref)
	}
	if err := m.RunUntilTick(end + settleTicks); err != nil {
		return nil, err
	}
	if err := m.RunUntilIdle(2_000_000_000); err != nil {
		return nil, err
	}

	out := &Playback{Stats: statsOf(m), M: m}
	if sink != nil {
		out.Trace, out.TraceKinds = sink.finish()
		out.TraceTicks = sink.marks
	}
	if opt.CountOpcodes {
		out.OpcodeHist = m.CPU.OpcodeCount
	}
	if opt.TraceInstructions {
		out.InstrTrace = instrTrace
	}
	if opt.WithHacks {
		logDB, err := m.Store.Export(palmos.ActivityLogDB)
		if err != nil {
			return nil, err
		}
		out.Log, err = alog.FromDatabase(logDB)
		if err != nil {
			return nil, err
		}
	}
	final, err := hotsync.Backup(m)
	if err != nil {
		return nil, err
	}
	out.Final = final
	return out, nil
}

// scheduleLog hands the log's replay queues to the kernel and schedules
// its synchronous events, returning the last event's tick.
func scheduleLog(m *Machine, log *Log) (end uint32, err error) {
	replay := log.ToReplay()
	m.Kernel.Replay = replay.Queues()
	for _, ev := range replay.Synchronous {
		tick := ev.Tick
		if tick < m.Ticks() {
			// An event logged before this machine's boot settled (can
			// happen if the collection machine booted faster); deliver
			// as soon as possible.
			tick = m.Ticks()
		}
		if err := m.Schedule(tick, ev.Ev); err != nil {
			return 0, err
		}
		if tick > end {
			end = tick
		}
	}
	return end, nil
}

func statsOf(m *Machine) RunStats {
	return RunStats{
		Bus:            m.Bus.Stats,
		Machine:        m.Stats,
		Kernel:         m.Kernel.Stats,
		ElapsedSeconds: m.ElapsedSeconds(),
	}
}

// FormatElapsed renders seconds as H:MM:SS, the Table 1 form.
func FormatElapsed(seconds float64) string {
	s := int64(seconds)
	return fmt.Sprintf("%d:%02d:%02d", s/3600, s/60%60, s%60)
}
