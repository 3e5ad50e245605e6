package emu

import (
	"errors"
	"testing"

	"palmsim/internal/hw"
	"palmsim/internal/m68k"
	"palmsim/internal/palmos"
	"palmsim/internal/simerr"
)

func newBooted(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatalf("boot: %v (cpu: %s)", err, m.CPU)
	}
	return m
}

func TestBootSettlesInLauncher(t *testing.T) {
	m := newBooted(t)
	if !m.Kernel.BootDone() {
		t.Fatal("kernel boot gate never ran")
	}
	if !m.CPU.Stopped() {
		t.Fatal("CPU not dozing after boot")
	}
	app := m.Bus.Peek(palmos.AddrCurrentApp, m68k.Word)
	if app != palmos.AppLauncher {
		t.Errorf("current app = %d, want launcher", app)
	}
	// The launcher drew something.
	fb := m.Framebuffer()
	nonzero := 0
	for _, b := range fb {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("framebuffer untouched after launcher drew its UI")
	}
	// System databases exist.
	for _, name := range []string{palmos.LaunchDB, palmos.MemoDB, palmos.PuzzleDB, palmos.AddressDB} {
		if _, ok := m.Store.Lookup(name); !ok {
			t.Errorf("system database %q missing after boot", name)
		}
	}
}

// TestScheduleRejectsOutOfOrderInput: an input scheduled before the last
// one fails with ErrCorruptState and leaves the schedule as it was.
func TestScheduleRejectsOutOfOrderInput(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: 'a'}))
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: 'b'}))
	if err := m.Schedule(tick-1, hw.InputEvent{Type: hw.EvKey, A: 'c'}); !errors.Is(err, simerr.ErrCorruptState) {
		t.Errorf("out-of-order input: err = %v, want ErrCorruptState", err)
	}
	if n := m.PendingInputs(); n != 2 {
		t.Errorf("%d inputs pending, want 2", n)
	}
}

func TestPenTapLaunchesMemo(t *testing.T) {
	m := newBooted(t)
	// Tap top-left (memo box) then release.
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvPen, A: 20, B: 40}))
	must(t, m.Schedule(tick+2, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	app := m.Bus.Peek(palmos.AddrCurrentApp, m68k.Word)
	if app != palmos.AppMemo {
		t.Fatalf("current app = %d, want memo (%d)", app, palmos.AppMemo)
	}
}

func TestKeyEventsReachMemoBuffer(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	// Launch memo with key '1'.
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '1'}))
	// Type "hi".
	must(t, m.Schedule(tick+20, hw.InputEvent{Type: hw.EvKey, A: 'h'}))
	must(t, m.Schedule(tick+30, hw.InputEvent{Type: hw.EvKey, A: 'i'}))
	if err := m.RunUntilIdle(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	length := m.Bus.Peek(palmos.AddrAppGlobals, m68k.Word)
	if length != 2 {
		t.Fatalf("memo length = %d, want 2", length)
	}
	c0 := byte(m.Bus.Peek(palmos.AddrAppGlobals+2, m68k.Byte))
	c1 := byte(m.Bus.Peek(palmos.AddrAppGlobals+3, m68k.Byte))
	if c0 != 'h' || c1 != 'i' {
		t.Errorf("memo buffer = %q%q, want \"hi\"", c0, c1)
	}
}

func TestMemoSaveWritesDatabase(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '1'}))
	for i, c := range "note" {
		must(t, m.Schedule(tick+20+uint32(i)*10, hw.InputEvent{Type: hw.EvKey, A: uint16(c)}))
	}
	// Tap the save bar (y >= 140).
	must(t, m.Schedule(tick+100, hw.InputEvent{Type: hw.EvPen, A: 30, B: 150}))
	must(t, m.Schedule(tick+102, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	if err := m.RunUntilIdle(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	db, ok := m.Store.Lookup(palmos.MemoDB)
	if !ok {
		t.Fatal("MemoDB missing")
	}
	if db.NumRecords() != 1 {
		t.Fatalf("MemoDB has %d records, want 1", db.NumRecords())
	}
	data, err := db.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != "note" {
		t.Errorf("record = %q, want to start with \"note\"", data)
	}
}

func TestDozeSkipsIdleTime(t *testing.T) {
	m := newBooted(t)
	// One hour of emulated idle must not execute instructions.
	instrBefore := m.CPU.Instructions
	target := m.Ticks() + 360_000 // 1 hour of ticks
	if err := m.RunUntilTick(target); err != nil {
		t.Fatal(err)
	}
	if m.Ticks() < target {
		t.Fatalf("ticks = %d, want >= %d", m.Ticks(), target)
	}
	executed := m.CPU.Instructions - instrBefore
	if executed > 1000 {
		t.Errorf("idle hour executed %d instructions; doze is broken", executed)
	}
	if m.Stats.SkippedCycles == 0 {
		t.Error("no cycles skipped during idle hour")
	}
	if m.ElapsedSeconds() < 3599 {
		t.Errorf("elapsed %.1fs, want about an hour", m.ElapsedSeconds())
	}
}

func TestPuzzleSessionRecordsScore(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	// Launch puzzle with key '2'.
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '2'}))
	// A few taps on the board.
	for i := 0; i < 5; i++ {
		base := tick + 50 + uint32(i)*30
		must(t, m.Schedule(base, hw.InputEvent{Type: hw.EvPen, A: uint16(20 + i*30), B: 60}))
		must(t, m.Schedule(base+3, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	}
	// Back to launcher via key '1'... puzzle has no launch key; use a
	// direct app stop by scheduling nothing and just verifying state.
	if err := m.RunUntilIdle(500_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	app := m.Bus.Peek(palmos.AddrCurrentApp, m68k.Word)
	if app != palmos.AppPuzzle {
		t.Fatalf("current app = %d, want puzzle", app)
	}
	moves := m.Bus.Peek(palmos.AddrAppGlobals+0x112, m68k.Word)
	if moves == 0 {
		t.Error("no puzzle moves registered after taps")
	}
}

func TestReferenceMixIsFlashHeavy(t *testing.T) {
	m := newBooted(t)
	ram0, flash0 := m.Bus.Stats.RAMRefs, m.Bus.Stats.FlashRefs
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '2'}))
	for i := 0; i < 8; i++ {
		base := tick + 40 + uint32(i)*20
		must(t, m.Schedule(base, hw.InputEvent{Type: hw.EvPen, A: uint16(30 + i*10), B: uint16(30 + i*12)}))
		must(t, m.Schedule(base+3, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	}
	if err := m.RunUntilIdle(500_000_000); err != nil {
		t.Fatal(err)
	}
	ram := m.Bus.Stats.RAMRefs - ram0
	flash := m.Bus.Stats.FlashRefs - flash0
	total := ram + flash
	if total == 0 {
		t.Fatal("no references recorded")
	}
	frac := float64(flash) / float64(total)
	// Paper §4.2: flash contributes about two thirds of total references.
	if frac < 0.5 || frac > 0.85 {
		t.Errorf("flash fraction = %.2f, want roughly 2/3", frac)
	}
	avg := (float64(ram) + 3*float64(flash)) / float64(total)
	if avg < 2.0 || avg > 2.7 {
		t.Errorf("avg mem cycles = %.2f, want in the paper's 2.35-2.39 neighbourhood", avg)
	}
}

func TestOpcodeHistogramCollects(t *testing.T) {
	m, err := New(Options{Profiling: true, TraceNative: true, CountOpcodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range m.CPU.OpcodeCount {
		total += n
	}
	if total != m.CPU.Instructions {
		t.Errorf("opcode histogram total %d != instructions %d", total, m.CPU.Instructions)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestScreenPGM(t *testing.T) {
	m := newBooted(t)
	img := m.ScreenPGM()
	if string(img[:3]) != "P5\n" {
		t.Fatalf("not a PGM: %q", img[:8])
	}
	if len(img) < palmos.ScreenWidth*palmos.ScreenHeight {
		t.Fatalf("image too small: %d bytes", len(img))
	}
	// The launcher drew ink, so some pixels differ from the background.
	dark := 0
	for _, px := range img[15:] {
		if px != 255 {
			dark++
		}
	}
	if dark == 0 {
		t.Error("screenshot is blank")
	}
}

func TestCardEventsBroadcastNotifications(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvCard, A: 0x0101}))
	must(t, m.Schedule(tick+50, hw.InputEvent{Type: hw.EvCard, A: 0x0201}))
	if err := m.RunUntilIdle(100_000_000); err != nil {
		t.Fatal(err)
	}
	// Both edges were consumed (launcher ignores notify events but the
	// queue must have seen them: check kernel stats).
	if m.Kernel.Stats.EventsQueued < 2 {
		t.Errorf("card edges queued %d events, want >= 2", m.Kernel.Stats.EventsQueued)
	}
}

// TestFatalDetection: corrupting a trap-table entry makes the next system
// call land in the ROM's fatal handler, which the machine must surface as
// ErrFatal rather than spinning or silently idling.
func TestFatalDetection(t *testing.T) {
	m := newBooted(t)
	// Point EvtGetEvent at the fatal handler.
	fatalAddr, _ := m.ROM.Symbol("fatal")
	m.Bus.Poke(palmos.AddrTrapTable+uint32(palmos.TrapEvtGetEvent)*4, m68k.Long, fatalAddr)
	// Wake the launcher: its next EvtGetEvent call hits fatal.
	must(t, m.Schedule(m.Ticks()+5, hw.InputEvent{Type: hw.EvKey, A: 'x'}))
	err := m.RunUntilIdle(100_000_000)
	if err == nil {
		t.Fatal("fatal state not detected")
	}
	if !m.Fatal() {
		t.Error("Fatal() false after the fatal handler parked")
	}
}

// TestSoftResetPreservesStorage: §2.2 — a soft reset restarts the
// processor deterministically while the storage heap survives; the trap
// table is rebuilt, so installed patches vanish.
func TestSoftResetPreservesStorage(t *testing.T) {
	m := newBooted(t)
	db, _ := m.Store.Lookup(palmos.MemoDB)
	idx, _, err := db.NewRecord(4)
	must(t, err)
	must(t, db.Write(idx, 0, []byte("keep")))

	// Scribble on a trap table entry (stand-in for an installed hack).
	entry := palmos.AddrTrapTable + uint32(palmos.TrapSysRandom)*4
	original := m.Bus.Peek(entry, m68k.Long)
	m.Bus.Poke(entry, m68k.Long, 0x12345678)

	if err := m.SoftReset(); err != nil {
		t.Fatalf("soft reset: %v", err)
	}
	// Storage survived.
	db2, ok := m.Store.Lookup(palmos.MemoDB)
	if !ok || db2.NumRecords() != 1 {
		t.Fatal("storage heap lost across soft reset")
	}
	data, _ := db2.Read(0)
	if string(data) != "keep" {
		t.Errorf("record = %q", data)
	}
	// Trap table rebuilt (patch gone).
	if got := m.Bus.Peek(entry, m68k.Long); got != original {
		t.Errorf("trap entry = %#x, want restored %#x", got, original)
	}
	// The machine still works.
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '1'}))
	must(t, m.RunUntilIdle(100_000_000))
	if app := m.Bus.Peek(palmos.AddrCurrentApp, m68k.Word); app != palmos.AppMemo {
		t.Errorf("post-reset machine not functional: app=%d", app)
	}
}

// TestSketchAppInks: pen strokes in the Sketch app write ink pixels into
// the framebuffer; the clear bar erases.
func TestSketchAppInks(t *testing.T) {
	m := newBooted(t)
	tick := m.Ticks() + 10
	must(t, m.Schedule(tick, hw.InputEvent{Type: hw.EvKey, A: '4'}))
	// A diagonal stroke.
	for i := 0; i < 10; i++ {
		must(t, m.Schedule(tick+20+uint32(i)*2, hw.InputEvent{Type: hw.EvPen, A: uint16(40 + i*3), B: uint16(60 + i*2)}))
	}
	must(t, m.Schedule(tick+45, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	must(t, m.RunUntilIdle(200_000_000))
	if app := m.Bus.Peek(palmos.AddrCurrentApp, m68k.Word); app != palmos.AppSketch {
		t.Fatalf("app = %d, want sketch", app)
	}
	// Ink at the stroke's first point.
	fb := m.Framebuffer()
	if fb[60*160+40] != 0xFF {
		t.Error("no ink at the stroke start")
	}
	// Clear bar wipes it.
	must(t, m.Schedule(m.Ticks()+10, hw.InputEvent{Type: hw.EvPen, A: 80, B: 155}))
	must(t, m.Schedule(m.Ticks()+13, hw.InputEvent{Type: hw.EvPen, A: hw.PenUp, B: hw.PenUp}))
	must(t, m.RunUntilIdle(200_000_000))
	fb = m.Framebuffer()
	if fb[60*160+40] != 0 {
		t.Error("clear bar did not erase the ink")
	}
}
