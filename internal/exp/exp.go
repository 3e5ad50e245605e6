// Package exp implements the paper's experiments — one function per table
// or figure — returning structured results that cmd/experiments prints and
// the benchmarks in the repository root regenerate. The experiment index
// lives in DESIGN.md; paper-versus-measured numbers in EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"

	"palmsim/internal/alog"
	"palmsim/internal/asm"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/emu"
	"palmsim/internal/hack"
	"palmsim/internal/hw"
	"palmsim/internal/m68k"
	"palmsim/internal/palmos"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

// --- E1: pen sampling rate (§2.3.3) ---------------------------------------

// PenSamplingResult is the §2.3.3 overhead check: with the
// EvtEnqueuePenPoint hack installed and the stylus held against the
// screen, the device must still record the digitizer's full 50 samples per
// second.
type PenSamplingResult struct {
	Seconds    float64
	PenRecords int
	Rate       float64 // records per second
}

// PenSampling holds the stylus down for the given number of seconds on an
// instrumented machine and counts logged pen events.
func PenSampling(ctx context.Context, seconds int) (*PenSamplingResult, error) {
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	m.BindContext(ctx)
	if err := m.Boot(); err != nil {
		return nil, err
	}
	mgr := hack.NewManager(m)
	if err := mgr.InstallPaperHacks(); err != nil {
		return nil, err
	}
	b := user.NewBuilder(1, m.Ticks()+10)
	b.HoldPen(80, 80, uint32(seconds)*hw.TicksPerSec)
	for _, in := range b.Schedule() {
		if err := m.Schedule(in.Tick, in.Ev); err != nil {
			return nil, err
		}
	}
	if err := m.RunUntilIdle(4_000_000_000); err != nil {
		return nil, err
	}
	log, err := exportLog(m)
	if err != nil {
		return nil, err
	}
	pens := 0
	for _, r := range log.Records {
		if int(r.Trap) == palmos.TrapEvtEnqueuePenPoint && r.A != hw.PenUp {
			pens++
		}
	}
	return &PenSamplingResult{
		Seconds:    float64(seconds),
		PenRecords: pens,
		Rate:       float64(pens) / float64(seconds),
	}, nil
}

func exportLog(m *emu.Machine) (*alog.Log, error) {
	db, err := m.Store.Export(palmos.ActivityLogDB)
	if err != nil {
		return nil, err
	}
	return alog.FromDatabase(db)
}

// --- E2: Figure 3 — hack overhead vs. database size -----------------------

// OverheadPoint is one (hack, database-size) measurement.
type OverheadPoint struct {
	Hack      string
	Trap      int
	Records   int     // database size bucket (records already present)
	CyclesPer float64 // emulated CPU cycles of overhead per logged call
	MillisPer float64 // the same in milliseconds at 33 MHz
}

// figure3Buckets are the database sizes measured (the paper sweeps 0-60k).
var figure3Buckets = []int{0, 10000, 20000, 30000, 40000, 50000, 60000}

// hackTriggers drives each hacked call: a schedule builder fragment and
// the trap whose records count the calls.
type hackTrigger struct {
	name  string
	trap  int
	drive func(b *user.Builder)
}

func hackTriggers() []hackTrigger {
	return []hackTrigger{
		{"EvtEnqueueKey", palmos.TrapEvtEnqueueKey, func(b *user.Builder) {
			for i := 0; i < 8; i++ {
				b.Key('a')
			}
		}},
		{"EvtEnqueuePenPoint", palmos.TrapEvtEnqueuePenPoint, func(b *user.Builder) {
			b.Stroke(20, 20, 60, 60)
		}},
		{"KeyCurrentState", palmos.TrapKeyCurrentState, func(b *user.Builder) {
			// The puzzle polls KeyCurrentState on every pen-up.
			b.Key('2')
			b.IdleSeconds(1)
			for i := 0; i < 8; i++ {
				b.Buttons(uint16(i & 1))
				b.Tap(20+i*10, 60)
			}
		}},
		{"SysNotifyBroadcast", palmos.TrapSysNotifyBroadcast, func(b *user.Builder) {
			for i := 0; i < 8; i++ {
				b.Notify(uint16(i))
			}
		}},
		{"SysRandom", palmos.TrapSysRandom, func(b *user.Builder) {
			b.Key('2') // launch puzzle: 65 SysRandom calls
		}},
	}
}

// runTrigger measures active cycles and logged-call count for one trigger
// on a machine with or without the hack installed, with the activity log
// pre-filled to the bucket size.
func runTrigger(ctx context.Context, trig hackTrigger, prefill int, withHack bool) (cycles uint64, calls int, err error) {
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	m.BindContext(ctx)
	if err := m.Boot(); err != nil {
		return 0, 0, err
	}
	mgr := hack.NewManager(m)
	if err := mgr.PrepareDevice(); err != nil {
		return 0, 0, err
	}
	if withHack {
		if err := mgr.Install(trig.trap); err != nil {
			return 0, 0, err
		}
	}
	db, _ := m.Store.Lookup(palmos.ActivityLogDB)
	for db.NumRecords() < prefill {
		if _, _, err := db.NewRecord(alog.RecordSize); err != nil {
			return 0, 0, err
		}
	}
	b := user.NewBuilder(int64(trig.trap), m.Ticks()+10)
	trig.drive(b)
	for _, in := range b.Schedule() {
		if err := m.Schedule(in.Tick, in.Ev); err != nil {
			return 0, 0, err
		}
	}
	before := m.Stats.ActiveCycles
	if err := m.RunUntilIdle(4_000_000_000); err != nil {
		return 0, 0, err
	}
	return m.Stats.ActiveCycles - before, db.NumRecords() - prefill, nil
}

// HackOverhead measures Figure 3: for each of the five hacks and each
// database-size bucket, the per-call overhead (instrumented minus
// uninstrumented active cycles, divided by logged calls).
func HackOverhead(ctx context.Context, buckets []int) ([]OverheadPoint, error) {
	if buckets == nil {
		buckets = figure3Buckets
	}
	var out []OverheadPoint
	for _, trig := range hackTriggers() {
		for _, n := range buckets {
			with, calls, err := runTrigger(ctx, trig, n, true)
			if err != nil {
				return nil, fmt.Errorf("%s at %d records: %w", trig.name, n, err)
			}
			without, _, err := runTrigger(ctx, trig, n, false)
			if err != nil {
				return nil, err
			}
			if calls == 0 {
				return nil, fmt.Errorf("%s at %d records: no calls logged", trig.name, n)
			}
			over := float64(with) - float64(without)
			if over < 0 {
				over = 0
			}
			per := over / float64(calls)
			out = append(out, OverheadPoint{
				Hack:      trig.name,
				Trap:      trig.trap,
				Records:   n,
				CyclesPer: per,
				MillisPer: per / float64(hw.CPUHz) * 1000,
			})
		}
	}
	return out, nil
}

// --- E6: Figure 7 — desktop trace sweep ------------------------------------

// DesktopStudy streams the synthetic desktop address trace straight into
// the 56-configuration parallel sweep — the trace is never materialized.
func DesktopStudy(ctx context.Context, refs int) ([]cache.Result, error) {
	cfg := dtrace.DefaultConfig()
	if refs > 0 {
		cfg.Refs = refs
	}
	return sweep.Run(ctx, cache.PaperSweep(), dtrace.NewStream(cfg), sweep.Options{})
}

// --- trace file format -------------------------------------------------------

// MarshalDinero renders a reference trace in the classic "din" format
// consumed by the Dinero cache-simulator family: one "<label> <hexaddr>"
// pair per line, label 0 = data read, 1 = data write, 2 = instruction
// fetch. kinds carries m68k.Access values parallel to trace.
func MarshalDinero(trace []uint32, kinds []uint8) ([]byte, error) {
	if len(trace) != len(kinds) {
		return nil, fmt.Errorf("exp: trace has %d refs but %d kinds", len(trace), len(kinds))
	}
	var b []byte
	for i, addr := range trace {
		var label byte
		switch m68k.Access(kinds[i]) {
		case m68k.Read:
			label = '0'
		case m68k.Write:
			label = '1'
		default: // fetch
			label = '2'
		}
		b = append(b, label, ' ')
		b = appendHex32(b, addr)
		b = append(b, '\n')
	}
	return b, nil
}

func appendHex32(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	started := false
	for shift := 28; shift >= 0; shift -= 4 {
		d := v >> uint(shift) & 0xF
		if d != 0 || started || shift == 0 {
			b = append(b, digits[d])
			started = true
		}
	}
	return b
}

// --- the literal §2.3.3 tight-loop measurement ------------------------------

// TightLoopResult is one tight-loop measurement point.
type TightLoopResult struct {
	Records    int
	Iterations int
	CyclesPer  float64
	MillisPer  float64
}

// tightLoopDriver is the measurement program the paper describes: call the
// (isolated) EvtEnqueueKey hack in a tight loop, then park. It is
// assembled into RAM and jumped to directly.
const tightLoopDriver = `
iters	equ	$%X
trapop	equ	$%X
ioidle	equ	$FFFFF61E

driver:
	move.l	#iters-1,d7
loop:
	clr.w	-(sp)		; modifiers
	clr.w	-(sp)		; key code
	move.w	#$61,-(sp)	; ascii 'a'
	dc.w	trapop		; the hacked system call
	addq.l	#6,sp
	dbra	d7,loop
	move.w	#1,ioidle.w
park:
	stop	#$2000
	bra	park
`

// TightLoop measures the per-call overhead of the EvtEnqueueKey hack by
// the paper's own method: the hack is installed with its chain to the
// original routine eliminated, the activity log is pre-filled to the
// bucket size, and a 68k loop calls the trap `iterations` times.
func TightLoop(ctx context.Context, prefill, iterations int) (*TightLoopResult, error) {
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	m.BindContext(ctx)
	if err := m.Boot(); err != nil {
		return nil, err
	}
	mgr := hack.NewManager(m)
	if err := mgr.PrepareDevice(); err != nil {
		return nil, err
	}
	if err := mgr.InstallIsolated(palmos.TrapEvtEnqueueKey); err != nil {
		return nil, err
	}
	db, _ := m.Store.Lookup(palmos.ActivityLogDB)
	for db.NumRecords() < prefill {
		if _, _, err := db.NewRecord(alog.RecordSize); err != nil {
			return nil, err
		}
	}

	// Assemble the driver into free RAM and jump the CPU to it.
	const driverBase = 0x38000
	src := fmt.Sprintf(tightLoopDriver, iterations, 0xA000|palmos.TrapEvtEnqueueKey)
	img, err := asm.Assemble(driverBase, src)
	if err != nil {
		return nil, err
	}
	m.Bus.PokeBytes(driverBase, img.Data)
	m.CPU.PC = driverBase
	m.CPU.SetSR(0x2000) // supervisor, interrupts enabled
	m.CPU.Resume()      // leave the boot-time doze and run the driver

	start := m.Stats.ActiveCycles
	if err := m.RunUntilIdle(4_000_000_000); err != nil {
		return nil, err
	}
	spent := m.Stats.ActiveCycles - start
	per := float64(spent) / float64(iterations)
	return &TightLoopResult{
		Records:    prefill,
		Iterations: iterations,
		CyclesPer:  per,
		MillisPer:  per / float64(hw.CPUHz) * 1000,
	}, nil
}
