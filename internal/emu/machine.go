// Package emu assembles the complete simulated Palm m515 — CPU, bus,
// Dragonball peripherals, storage heap, native kernel and synthetic ROM —
// and drives it. It is the paper's S_emulated (and, when driven by the
// synthetic user model in internal/user, its S_user too: both are the same
// deterministic state machine, which is the point of the methodology).
//
// The machine advances on CPU cycles. The tick counter derives from the
// cycle counter (100 ticks/s at 33 MHz), so replay is exactly
// deterministic. When the kernel dozes (STOP inside EvtGetEvent with an
// empty queue), the machine skips the clock forward to the next scheduled
// input or wake — this is what lets a 141-hour session (Table 1, session 4)
// replay in seconds, mirroring the real device sleeping between inputs.
package emu

import (
	"context"
	"errors"
	"fmt"

	"palmsim/internal/bus"
	"palmsim/internal/hw"
	"palmsim/internal/m68k"
	"palmsim/internal/obs"
	"palmsim/internal/palmos"
	"palmsim/internal/rom"
	"palmsim/internal/simerr"
	"palmsim/internal/storage"
)

// ScheduledInput is one external input due at a tick.
type ScheduledInput struct {
	Tick uint32
	Ev   hw.InputEvent
}

// Stats aggregates machine-level run statistics.
type Stats struct {
	Instructions  uint64
	ActiveCycles  uint64 // cycles actually executed
	SkippedCycles uint64 // cycles skipped while dozing
	Injected      uint64 // inputs delivered to the hardware FIFO
}

// Machine is a complete simulated handheld.
type Machine struct {
	CPU    *m68k.CPU
	Bus    *bus.Bus
	HW     *hw.Dragonball
	Store  *storage.Manager
	Kernel *palmos.Kernel
	ROM    *rom.Image

	Stats Stats

	schedule []ScheduledInput
	schedIdx int

	bootDoneAt uint64 // cycle count when boot finished

	// nextTickCycle is the cycle count at which the tick counter next
	// advances. The per-step Sync/deliverDue pair only observes time
	// through Ticks() — a 64-bit division — so the step loop defers both
	// until a tick boundary is crossed (or the wake timer is armed, which
	// Sync must see promptly). Zero forces a sync on the next step.
	nextTickCycle uint64

	// engine, when non-nil, is the superblock execution engine the step
	// loop drives instead of per-instruction CPU.Step (Options.Dispatch).
	engine *m68k.BlockEngine

	// Observability counters (nil unless RegisterObs attached a registry;
	// nil counters no-op, so the disabled cost is one predicated load on
	// paths that already cross a tick boundary).
	obsTickSyncs  *obs.Counter
	obsLateInputs *obs.Counter

	// pub is the statistics copy the func metrics read (see obs.go); nil
	// unless RegisterObs attached a registry.
	pub *published

	// ctx, when non-nil, is polled at tick-sync granularity by the run
	// loops so a cancelled machine stops within one tick boundary. The
	// nil default costs the hot loop one predicated nil compare per
	// instruction, nothing more; ctxCheckCycle throttles the interface
	// call to once per crossed tick.
	ctx           context.Context
	ctxCheckCycle uint64

	// img is the pooled memory image backing Bus; Release returns it for
	// reuse (see pool.go). Nil after Release.
	img *bus.Image
}

// Options configures machine construction.
type Options struct {
	// Profiling mirrors POSE's Profiling switch (default on: the ROM
	// TrapDispatcher executes for every system call so traces are
	// complete; see DESIGN.md ablation 1).
	Profiling bool

	// TraceNative routes native OS data accesses through the traced bus
	// path (default on, approximating POSE-with-Profiling fidelity).
	TraceNative bool

	// CountOpcodes allocates the 65536-entry opcode histogram.
	CountOpcodes bool

	// Dispatch selects the CPU execution engine. DispatchSpec (the zero
	// value) is the specialized superblock engine, the fast path;
	// DispatchLegacy builds no block engine, so every instruction runs
	// through CPU.Step's reference switch, for cross-checking (see
	// cmd/palmsim -dispatch).
	Dispatch m68k.DispatchKind
}

// DefaultOptions returns the configuration used for paper experiments.
func DefaultOptions() Options {
	return Options{Profiling: true, TraceNative: true}
}

// New builds a machine with the synthetic ROM loaded and the CPU reset,
// ready to Boot.
func New(opts Options) (*Machine, error) {
	img, err := rom.Build()
	if err != nil {
		return nil, err
	}
	m := &Machine{ROM: img}

	m.HW = hw.New(nil, nil) // wired below once CPU exists
	m.img = getImage()
	m.Bus = bus.NewFromImage(m.HW, m.img)
	m.Bus.TraceNative = opts.TraceNative
	m.CPU = m68k.New(m.Bus)
	m.HW.CyclesFn = func() uint64 { return m.CPU.Cycles }
	m.HW.RaiseIRQ = m.CPU.SetIRQ
	m.Bus.BindCycles(&m.CPU.Cycles)

	m.Store = storage.NewManager(m.Bus)
	m.Store.ChargeCycles = func(c uint64) { m.CPU.Cycles += c }
	m.Store.Now = m.HW.RTCSeconds

	m.Kernel = palmos.NewKernel(m.CPU, m.Bus, m.HW, m.Store)
	m.Kernel.Profiling = opts.Profiling
	m.CPU.OnLineA = m.Kernel.HandleLineA
	m.CPU.OnLineF = m.Kernel.HandleLineF

	if opts.CountOpcodes {
		m.CPU.OpcodeCount = make([]uint64, 65536)
	}

	if opts.Dispatch != m68k.DispatchLegacy {
		m.engine = m68k.NewBlockEngine(m.CPU, m.Bus.BlockBinding(m.HW.WakeRef()))
		m.Bus.Watch = m.engine
	}

	if err := m.Bus.LoadROM(0, img.Data); err != nil {
		m.Release()
		return nil, err
	}
	// The Dragonball boot overlay supplies the reset vectors; we poke
	// them into RAM before releasing reset.
	m.Bus.Poke(0, m68k.Long, palmos.AddrSupStack)
	m.Bus.Poke(4, m68k.Long, img.Entry())
	m.CPU.Reset()
	return m, nil
}

// ErrHalted reports a machine that hit a fatal CPU condition.
var ErrHalted = errors.New("emu: CPU halted")

// ErrFatal reports that the ROM's fatal handler ran: an unexpected
// exception (illegal instruction, unimplemented trap, bus fault) parked
// the kernel with interrupts masked.
var ErrFatal = errors.New("emu: ROM fatal handler reached")

// Fatal reports whether the kernel parked in its fatal handler. The
// handler executes STOP with interrupt mask 7, which a healthy doze (mask
// 0) never does.
func (m *Machine) Fatal() bool {
	return m.CPU.Stopped() && m.CPU.IntMask() == 7 && m.Kernel.BootDone()
}

// SoftReset performs the paper's §2.2 session precondition: restart the
// processor "directly after a soft reset". As on real hardware, the
// storage heap (databases) survives, the dynamic heap is reinitialized by
// the boot code, and the trap dispatch table is rebuilt — which uninstalls
// any hacks, exactly why X-Master-style managers reinstall them at boot.
func (m *Machine) SoftReset() error {
	m.Kernel.ResetState()
	m.CPU.Reset()
	return m.Boot()
}

// Ticks returns the current tick count.
func (m *Machine) Ticks() uint32 { return m.HW.Ticks() }

// BindContext attaches a cancellation context to the machine. The run
// loops (Boot, RunUntilTick, RunUntilIdle) poll it once per emulated
// tick and return a simerr.ErrCanceled error — with the failing tick
// attached — within one tick-sync boundary of cancellation. A nil ctx
// (the default) disables the checks; the hot loop then pays only a nil
// compare per instruction, which benchmarks cannot distinguish from the
// previous loop shape.
func (m *Machine) BindContext(ctx context.Context) {
	if ctx == context.Background() || ctx == context.TODO() {
		ctx = nil // nothing to poll; keep the disabled fast path
	}
	m.ctx = ctx
	m.ctxCheckCycle = 0 // poll on the next loop iteration
}

// canceled polls the bound context at most once per crossed tick and
// returns the structured cancellation error when it has fired.
func (m *Machine) canceled() error {
	if m.ctx == nil || m.CPU.Cycles < m.ctxCheckCycle {
		return nil
	}
	if err := m.ctx.Err(); err != nil {
		return simerr.Canceled(m.ctx, "emu: run", int64(m.Ticks()))
	}
	// nextTickCycle is maintained by tickSync; re-check once the clock
	// crosses it (Schedule and BindContext reset it to force a poll).
	m.ctxCheckCycle = m.nextTickCycle
	return nil
}

// Schedule queues an external input for delivery at the given tick. Inputs
// must be scheduled in nondecreasing tick order (activity logs are ordered).
func (m *Machine) Schedule(tick uint32, ev hw.InputEvent) error {
	if n := len(m.schedule); n > 0 && m.schedule[n-1].Tick > tick {
		return fmt.Errorf("emu: input scheduled at tick %d after tick %d", tick, m.schedule[n-1].Tick)
	}
	m.schedule = append(m.schedule, ScheduledInput{Tick: tick, Ev: ev})
	m.nextTickCycle = 0 // the input may already be due: sync on next step
	return nil
}

// SetTracer attaches (or detaches, with nil) a reference tracer. The same
// function goes to the bus and, with the block engine active, to the
// engine, whose code-window fetches and inline data accesses report
// through it, so the reference stream is complete on either path.
func (m *Machine) SetTracer(t bus.Tracer) {
	m.Bus.Tracer = t
	if m.engine != nil {
		m.engine.SetTrace(t)
	}
}

// PendingInputs reports how many scheduled inputs have not been delivered.
func (m *Machine) PendingInputs() int { return len(m.schedule) - m.schedIdx }

// Boot runs the machine until the ROM finishes booting and the launcher
// first dozes waiting for input.
func (m *Machine) Boot() error {
	defer m.runReturned()
	const bootCap = 20_000_000 // instructions; the boot needs ~50k
	for i := 0; i < bootCap; i++ {
		if err := m.canceled(); err != nil {
			return err
		}
		if m.CPU.Halted() {
			return fmt.Errorf("%w during boot at PC=%#x: %v", ErrHalted, m.CPU.PC, m.CPU.Err())
		}
		if m.Kernel.BootDone() && m.CPU.Stopped() && m.CPU.PendingIRQ() == 0 {
			m.bootDoneAt = m.CPU.Cycles
			return nil
		}
		m.step()
	}
	return fmt.Errorf("emu: boot did not settle (PC=%#x)", m.CPU.PC)
}

func (m *Machine) step() {
	before := m.CPU.Cycles
	if m.engine != nil {
		// Run whole blocks up to the next tick boundary. RunUntil breaks
		// after every instruction the interpreter loop would have followed
		// with a tick sync (limit reached, wake timer armed, stop/halt,
		// interrupt delivery), so the sync points below are identical.
		m.engine.RunUntil(m.nextTickCycle)
	} else {
		m.CPU.Step()
	}
	m.Stats.ActiveCycles += m.CPU.Cycles - before
	m.Stats.Instructions = m.CPU.Instructions
	// Sync and input delivery observe time at tick granularity, so they
	// only need to run when a tick boundary is crossed — except while the
	// wake timer is armed, where Sync must fire the interrupt on exactly
	// the step the old always-sync loop would have.
	if m.CPU.Cycles >= m.nextTickCycle || m.HW.WakeAt() != 0 {
		m.tickSync()
	}
}

// tickSync runs the tick-granular housekeeping (wake timer, scheduled
// inputs) and computes the next cycle count at which it must run again.
func (m *Machine) tickSync() {
	m.obsTickSyncs.Inc()
	m.HW.Sync()
	m.deliverDue()
	m.nextTickCycle = (m.CPU.Cycles/hw.CyclesPerTick + 1) * hw.CyclesPerTick
	if m.pub != nil {
		m.publish(false)
	}
}

// deliverDue pushes every scheduled input whose tick has arrived.
func (m *Machine) deliverDue() {
	now := m.HW.Ticks()
	for m.schedIdx < len(m.schedule) && m.schedule[m.schedIdx].Tick <= now {
		if m.schedule[m.schedIdx].Tick < now {
			// Delivered after its scheduled tick: the machine was busy
			// across the boundary (a tick-sync stall in replay terms).
			m.obsLateInputs.Inc()
		}
		m.HW.Push(m.schedule[m.schedIdx].Ev)
		m.schedIdx++
		m.Stats.Injected++
	}
}

// nextWakeTick returns the earliest tick at which something will happen
// while the CPU dozes: the next scheduled input or the armed wake timer.
// ok is false when nothing is pending.
func (m *Machine) nextWakeTick() (uint32, bool) {
	var t uint32
	ok := false
	if m.schedIdx < len(m.schedule) {
		t = m.schedule[m.schedIdx].Tick
		ok = true
	}
	if w := m.HW.WakeAt(); w != 0 && (!ok || w < t) {
		t = w
		ok = true
	}
	return t, ok
}

// skipTo advances the clock to the given tick without executing
// instructions (the device is asleep; no memory references happen).
func (m *Machine) skipTo(tick uint32) {
	target := uint64(tick) * hw.CyclesPerTick
	if target > m.CPU.Cycles {
		m.Stats.SkippedCycles += target - m.CPU.Cycles
		m.CPU.Cycles = target
	}
	m.tickSync()
}

// RunUntilTick advances the machine (executing and dozing as the kernel
// dictates) until the tick counter reaches target or nothing further can
// happen. It returns an error only for fatal CPU states.
func (m *Machine) RunUntilTick(target uint32) error {
	defer m.runReturned()
	// Ticks() < target ⟺ Cycles < target·CyclesPerTick; comparing cycles
	// avoids a 64-bit division per executed instruction.
	targetCycles := uint64(target) * hw.CyclesPerTick
	for m.CPU.Cycles < targetCycles {
		if err := m.canceled(); err != nil {
			return err
		}
		if m.CPU.Halted() {
			return fmt.Errorf("%w at PC=%#x: %v", ErrHalted, m.CPU.PC, m.CPU.Err())
		}
		if m.Fatal() {
			return fmt.Errorf("%w (PC=%#x)", ErrFatal, m.CPU.PC)
		}
		if m.CPU.Stopped() && m.CPU.PendingIRQ() == 0 {
			next, ok := m.nextWakeTick()
			if !ok || next >= target {
				// Nothing (relevant) will wake the device before the
				// horizon: sleep through to it.
				m.skipTo(target)
				return nil
			}
			if next <= m.HW.Ticks() {
				// Due now; deliver and let the IRQ wake the CPU.
				m.deliverDue()
				m.HW.Sync()
				if m.CPU.PendingIRQ() == 0 {
					// A wake with nothing to deliver (timer already
					// cleared): nudge time forward one tick to avoid
					// spinning.
					m.skipTo(m.HW.Ticks() + 1)
				}
				continue
			}
			m.skipTo(next)
			continue
		}
		m.step()
	}
	return nil
}

// RunUntilIdle runs until every scheduled input has been delivered and the
// machine has settled back into a doze (or maxInstr is exceeded).
func (m *Machine) RunUntilIdle(maxInstr uint64) error {
	defer m.runReturned()
	start := m.CPU.Instructions
	for {
		if err := m.canceled(); err != nil {
			return err
		}
		if m.CPU.Halted() {
			return fmt.Errorf("%w at PC=%#x: %v", ErrHalted, m.CPU.PC, m.CPU.Err())
		}
		if m.Fatal() {
			return fmt.Errorf("%w (PC=%#x)", ErrFatal, m.CPU.PC)
		}
		if m.CPU.Stopped() && m.CPU.PendingIRQ() == 0 {
			if m.PendingInputs() == 0 && m.HW.FifoLen() == 0 {
				return nil
			}
			next, ok := m.nextWakeTick()
			if !ok {
				return nil
			}
			m.skipTo(next)
			continue
		}
		if m.CPU.Instructions-start > maxInstr {
			return fmt.Errorf("emu: exceeded %d instructions without settling (PC=%#x)", maxInstr, m.CPU.PC)
		}
		m.step()
	}
}

// ElapsedSeconds returns the session's emulated wall-clock length so far.
func (m *Machine) ElapsedSeconds() float64 {
	return float64(m.CPU.Cycles) / float64(hw.CPUHz)
}

// Framebuffer returns a copy of the 160x160 display contents.
func (m *Machine) Framebuffer() []byte {
	return m.Bus.PeekBytes(palmos.AddrFramebuffer, palmos.ScreenWidth*palmos.ScreenHeight)
}

// ScreenPGM renders the display as a binary PGM (P5) image — the
// emulator's screenshot facility.
func (m *Machine) ScreenPGM() []byte {
	fb := m.Framebuffer()
	header := fmt.Sprintf("P5\n%d %d\n255\n", palmos.ScreenWidth, palmos.ScreenHeight)
	out := make([]byte, 0, len(header)+len(fb))
	out = append(out, header...)
	// The framebuffer stores "ink" values; invert so the background is
	// white like a real monochrome LCD.
	for _, px := range fb {
		out = append(out, 255-px)
	}
	return out
}
