package bus

import (
	"math/rand"
	"testing"

	"palmsim/internal/m68k"
)

// Bus.Read/Write is the one implementation of the per-reference rule, and
// attaching a Tracer must not perturb the model it traces: a traced and an
// untraced bus return the same values and end with the same Stats, cycle
// count and device traffic, and the tracer sees each reference exactly
// once, after its wait states are charged and before its effect.

// portProbe is one access in the equivalence schedule; the addresses span
// RAM (including the bounds-check edge), flash, I/O, and open bus.
var portProbes = []struct {
	addr uint32
	size m68k.Size
}{
	{0x0000100, m68k.Long},
	{0x0000101, m68k.Byte},
	{0x0000103, m68k.Word},   // misaligned: OddAccesses
	{RAMSize - 2, m68k.Long}, // straddles the RAM end: bounds-checked
	{RAMSize - 4, m68k.Long},
	{RAMSize, m68k.Word}, // open
	{ROMBase, m68k.Word},
	{ROMBase + 0x1000, m68k.Long},
	{ROMBase + ROMSize - 1, m68k.Byte},
	{ROMBase + ROMSize, m68k.Long}, // open
	{IOBase + 0x610, m68k.Word},
	{0xFFFFFFFF, m68k.Byte},
	{0x08000000, m68k.Long}, // open
}

// probeAccess is one bus access; v is the value written when kind is Write.
type probeAccess struct {
	addr uint32
	size m68k.Size
	kind m68k.Access
	v    uint32
}

// probeSchedule expands portProbes into a fetch, a read, a write of a
// seeded random value and a read-back per probe.
func probeSchedule() []probeAccess {
	rng := rand.New(rand.NewSource(9))
	var s []probeAccess
	for _, p := range portProbes {
		s = append(s,
			probeAccess{p.addr, p.size, m68k.Fetch, 0},
			probeAccess{p.addr, p.size, m68k.Read, 0},
			probeAccess{p.addr, p.size, m68k.Write, rng.Uint32()},
			probeAccess{p.addr, p.size, m68k.Read, 0})
	}
	return s
}

// do performs a on b and returns the value read (0 for a write).
func (a probeAccess) do(b *Bus) uint32 {
	if a.kind == m68k.Write {
		b.Write(a.addr, a.size, a.v)
		return 0
	}
	return b.Read(a.addr, a.size, a.kind)
}

// newProbeBus returns a bus over dev with a seeded ROM, charging cycles.
func newProbeBus(dev *fakeDevice, cycles *uint64) *Bus {
	b := New(dev)
	b.LoadROM(0, []byte{0x12, 0x34, 0x56, 0x78})
	b.BindCycles(cycles)
	return b
}

// waitStates is the charge for one access at addr.
func waitStates(addr uint32) uint64 {
	switch {
	case addr < RAMSize:
		return RAMCycles
	case addr-ROMBase < ROMSize:
		return FlashCycles
	}
	return 0
}

// TestFastPortEquivalence: an untraced and a traced bus driven through the
// same schedule agree on every value, Stats, the cycle count and the
// device traffic.
func TestFastPortEquivalence(t *testing.T) {
	var plainCycles, tracedCycles uint64
	plainDev, tracedDev := &fakeDevice{readVal: 0x5A}, &fakeDevice{readVal: 0x5A}
	plain := newProbeBus(plainDev, &plainCycles)
	traced := newProbeBus(tracedDev, &tracedCycles)
	tr := &countTracer{}
	traced.Tracer = tr.ref

	sched := probeSchedule()
	for i, a := range sched {
		if want, got := a.do(plain), a.do(traced); got != want {
			t.Errorf("access %d %+v: untraced %#x, traced %#x", i, a, want, got)
		}
	}
	if len(tr.refs) != len(sched) {
		t.Errorf("tracer saw %d refs for %d accesses", len(tr.refs), len(sched))
	}
	if plain.Stats != traced.Stats {
		t.Errorf("stats diverged:\nuntraced %+v\ntraced   %+v", plain.Stats, traced.Stats)
	}
	if plainCycles == 0 || plainCycles != tracedCycles {
		t.Errorf("cycles: untraced %d, traced %d", plainCycles, tracedCycles)
	}
	if plainDev.ops == 0 || *plainDev != *tracedDev {
		t.Errorf("device traffic diverged: %+v vs %+v", plainDev, tracedDev)
	}
}

// refState is what a tracer can observe when a reference is reported.
type refState struct {
	ref    tracedRef
	cycles uint64 // the bound cycle counter
	mem    uint32 // Peek at the reference's address
	devOps int    // device register accesses so far
}

// stateTracer records the observable state at every Tracer call.
type stateTracer struct {
	b      *Bus
	cycles *uint64
	dev    *fakeDevice
	seen   []refState
}

func (s *stateTracer) ref(addr uint32, size m68k.Size, kind m68k.Access) {
	s.seen = append(s.seen, refState{tracedRef{addr, size, kind}, *s.cycles, s.b.Peek(addr, size), s.dev.ops})
}

// TestTracedPortEquivalence: the tracer is called exactly once per access,
// with its address, size and kind, with the access's wait states already
// charged and before its effect on memory or the device.
func TestTracedPortEquivalence(t *testing.T) {
	var cycles uint64
	dev := &fakeDevice{readVal: 0x5A}
	b := newProbeBus(dev, &cycles)
	tr := &stateTracer{b: b, cycles: &cycles, dev: dev}
	b.Tracer = tr.ref

	for i, a := range probeSchedule() {
		want := refState{
			ref:    tracedRef{a.addr, a.size, a.kind},
			cycles: cycles + waitStates(a.addr),
			mem:    b.Peek(a.addr, a.size),
			devOps: dev.ops,
		}
		a.do(b)
		if len(tr.seen) != i+1 {
			t.Fatalf("access %d %+v: tracer has %d refs, want %d", i, a, len(tr.seen), i+1)
		}
		if got := tr.seen[i]; got != want {
			t.Errorf("access %d: tracer saw %+v, want %+v", i, got, want)
		}
	}
	if dev.ops == 0 {
		t.Error("schedule never reached the device; vacuous ordering check")
	}
}

// TestPortNilCycles: a bus never bound to a cycle counter charges its own
// sink instead of panicking, and binding one later redirects the charges.
func TestPortNilCycles(t *testing.T) {
	b := New(&fakeDevice{})
	var want uint64
	for _, a := range probeSchedule() {
		a.do(b)
		want += waitStates(a.addr)
	}
	if b.sink != want {
		t.Errorf("unbound bus charged %d cycles to its sink, want %d", b.sink, want)
	}
	var cycles uint64
	b.BindCycles(&cycles)
	b.Read(ROMBase, m68k.Word, m68k.Read)
	if cycles != FlashCycles || b.sink != want {
		t.Errorf("after BindCycles: bound %d, sink %d; want %d, %d", cycles, b.sink, FlashCycles, want)
	}
}

// TestPortSharesState checks that CPU-side accesses and the native
// ReadTraced/WriteTraced path see each other's writes and accumulate into
// the same Stats.
func TestPortSharesState(t *testing.T) {
	b := New(nil)
	b.TraceNative = true
	b.Write(0x100, m68k.Word, 0xBEEF)
	if got := b.ReadTraced(0x100, m68k.Word); got != 0xBEEF {
		t.Errorf("native read %#x after CPU write", got)
	}
	b.WriteTraced(0x200, m68k.Byte, 0x7)
	if got := b.Read(0x200, m68k.Byte, m68k.Read); got != 0x7 {
		t.Errorf("CPU read %#x after native write", got)
	}
	if b.Stats.RAMRefs != 4 {
		t.Errorf("shared stats RAMRefs = %d, want 4", b.Stats.RAMRefs)
	}
}
