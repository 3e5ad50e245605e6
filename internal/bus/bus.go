// Package bus implements the memory system of the simulated Palm m515: a
// 16 MB RAM, a 4 MB flash ROM and the Dragonball register window, with
// per-region reference counts and optional tracing on every access.
//
// The memory map mirrors the shape of the real device:
//
//	0x0000_0000 .. 0x00FF_FFFF   RAM (dynamic + storage heaps)
//	0x1000_0000 .. 0x103F_FFFF   flash ROM (the OS and applications)
//	0xFFFF_F000 .. 0xFFFF_FFFF   Dragonball MC68VZ328 registers
//
// Every CPU access is classified as a RAM, flash or I/O reference; the
// counts drive Table 1 of the paper (REF_RAM, REF_flash, average effective
// memory access cycles) and the optional Tracer receives the full stream
// for the cache case study. The Dragonball requires one cycle for RAM
// accesses and three for flash accesses, which the bus charges to the
// cycle counter bound with BindCycles so the CPU's clock reflects memory
// latency.
package bus

import (
	"fmt"

	"palmsim/internal/m68k"
)

// Physical layout constants for the simulated Palm m515.
const (
	RAMBase = 0x00000000
	RAMSize = 16 << 20
	ROMBase = 0x10000000
	ROMSize = 4 << 20
	IOBase  = 0xFFFFF000
	IOSize  = 0x1000

	// Memory latencies in CPU cycles (paper §4.2: "The Dragonball
	// MC68VZ328 requires one cycle for RAM accesses and three cycles for
	// flash accesses").
	RAMCycles   = 1
	FlashCycles = 3
)

// Mapped reports whether addr lies in RAM or flash, the two windows whose
// references the paper counts and the trace keeps (I/O and open bus are
// excluded). It is the unsigned-wrap window test Read and Write use.
func Mapped(addr uint32) bool {
	return addr < RAMSize || addr-ROMBase < ROMSize
}

// Tracer consumes the reference stream during playback: one call per
// access, after its wait states are charged and before its effect. It must
// be fast; the hot path calls it for every CPU access. The machine hands
// the same function to the block engine (m68k.BlockEngine.SetTrace), so
// code-window fetches and the engine's inline data accesses reach it too.
type Tracer func(addr uint32, size m68k.Size, kind m68k.Access)

// Device is a memory-mapped peripheral occupying the I/O window.
type Device interface {
	ReadReg(offset uint32, size m68k.Size) uint32
	WriteReg(offset uint32, size m68k.Size, v uint32)
}

// Stats accumulates the per-region reference counts that Table 1 reports.
type Stats struct {
	RAMRefs     uint64
	FlashRefs   uint64
	IORefs      uint64
	OpenRefs    uint64
	Fetches     uint64
	Reads       uint64
	Writes      uint64
	FlashWrites uint64 // attempted writes to ROM (always discarded)

	// OddAccesses counts misaligned word/long accesses. A real 68000
	// raises an address-error exception for these; the synthetic ROM and
	// the hack stubs must never produce one, so a nonzero count flags a
	// code-generation bug.
	OddAccesses uint64
}

// TotalRefs returns RAM + flash references (I/O and open bus excluded, as
// in the paper's REF_total).
func (s *Stats) TotalRefs() uint64 { return s.RAMRefs + s.FlashRefs }

// AvgMemCycles computes Equation 3 of the paper: the average effective
// memory access time, in cycles, of the cacheless hierarchy.
func (s *Stats) AvgMemCycles() float64 {
	total := s.TotalRefs()
	if total == 0 {
		return 0
	}
	return (float64(s.RAMRefs)*RAMCycles + float64(s.FlashRefs)*FlashCycles) / float64(total)
}

func (s *Stats) String() string {
	return fmt.Sprintf("ram=%d flash=%d io=%d avg=%.3f cycles",
		s.RAMRefs, s.FlashRefs, s.IORefs, s.AvgMemCycles())
}

// Bus is the m68k.Bus implementation wiring RAM, flash and the peripheral
// window together.
type Bus struct {
	RAM   []byte
	Flash []byte

	device Device

	// Tracer, when non-nil, receives every CPU reference.
	Tracer Tracer

	// Stats counts references by region and kind.
	Stats Stats

	// TraceNative controls whether Peek/Poke-style native OS accesses to
	// record data are fed to the tracer (see ReadTraced/WriteTraced).
	TraceNative bool

	// Watch, when non-nil, is the block engine whose cached translations
	// must be invalidated when code memory changes: every RAM write is
	// reported via NoteWrite, and wholesale flash updates (LoadROM, Poke)
	// bump its generation.
	Watch *m68k.BlockEngine

	// ramDirty/flashDirty alias the backing Image's dirty-page maps so
	// every write path records which pages Reclaim must zero.
	ramDirty   []byte
	flashDirty []byte

	// cycles receives each access's wait states: the counter bound by
	// BindCycles, or sink on an unbound bus, so the hot path needs no nil
	// test.
	cycles *uint64
	sink   uint64
}

// New creates a bus over a fresh memory image.
func New(device Device) *Bus {
	return NewFromImage(device, NewImage())
}

// NewFromImage creates a bus backed by img's arrays — typically one
// recycled through emu's image pool. The caller owns the image's
// lifecycle: after the machine is done, img.Reclaim() restores the
// all-zero state for the next user.
func NewFromImage(device Device, img *Image) *Bus {
	b := &Bus{
		RAM:        img.ram,
		Flash:      img.flash,
		device:     device,
		ramDirty:   img.ramDirty,
		flashDirty: img.flashDirty,
	}
	b.cycles = &b.sink
	return b
}

// BindCycles makes every counted access charge its wait states to
// *cycles, normally the CPU's cycle counter, so the machine clock
// reflects memory latency. cycles must not be nil.
func (b *Bus) BindCycles(cycles *uint64) { b.cycles = cycles }

// LoadROM copies an assembled image into flash at the given offset.
func (b *Bus) LoadROM(offset uint32, data []byte) error {
	if int(offset)+len(data) > len(b.Flash) {
		return fmt.Errorf("bus: ROM image of %d bytes does not fit at offset %#x", len(data), offset)
	}
	copy(b.Flash[offset:], data)
	if len(data) > 0 {
		for p := offset >> m68k.DirtyPageShift; p <= (offset+uint32(len(data))-1)>>m68k.DirtyPageShift && p < uint32(len(b.flashDirty)); p++ {
			b.flashDirty[p] = 1
		}
	}
	if b.Watch != nil {
		b.Watch.BumpGeneration()
	}
	return nil
}

// Read implements m68k.Bus. It applies the per-reference rule: count the
// access by kind and region, charge its wait states, report it to the
// Tracer, then perform it — so a tracer sees the clock and counters that
// include its reference, and sees every reference before its effect
// (device reads included). Read and Write apply it for the legacy engine,
// devices, open bus and native (TraceNative) accesses; the block engine's
// inline data path (m68k's fastMem) applies the same rule to the spec
// engine's RAM and flash accesses and reports through the same Tracer.
func (b *Bus) Read(addr uint32, size m68k.Size, kind m68k.Access) uint32 {
	b.charge(addr, size)
	switch kind {
	case m68k.Fetch:
		b.Stats.Fetches++
	case m68k.Read:
		b.Stats.Reads++
	default:
		b.Stats.Writes++
	}
	if b.Tracer != nil {
		b.Tracer(addr, size, kind)
	}
	switch {
	case addr < RAMSize:
		return readBE(b.RAM, addr, size)
	case addr-ROMBase < ROMSize:
		return readBE(b.Flash, addr-ROMBase, size)
	case addr >= IOBase:
		if b.device != nil {
			return b.device.ReadReg(addr-IOBase, size)
		}
		return 0
	}
	// Open bus: mimic a floating data bus with all-ones, which is loud
	// enough to notice in tests without halting the machine.
	return size.Mask()
}

// Write implements m68k.Bus, following the same rule as Read.
func (b *Bus) Write(addr uint32, size m68k.Size, v uint32) {
	b.charge(addr, size)
	b.Stats.Writes++
	if b.Tracer != nil {
		b.Tracer(addr, size, m68k.Write)
	}
	switch {
	case addr < RAMSize:
		if b.Watch != nil {
			b.Watch.NoteWrite(addr, size)
		}
		markDirty(b.ramDirty, addr, size)
		writeBE(b.RAM, addr, size, v)
	case addr-ROMBase < ROMSize:
		b.Stats.FlashWrites++ // ROM: discard
	case addr >= IOBase:
		if b.device != nil {
			b.device.WriteReg(addr-IOBase, size, v)
		}
	}
}

// charge counts one access's misalignment and region and charges its wait
// states. The region tests are unsigned-wrap window checks, so RAM, the
// common case, costs one compare.
func (b *Bus) charge(addr uint32, size m68k.Size) {
	st := &b.Stats
	if size != m68k.Byte && addr&1 != 0 {
		st.OddAccesses++
	}
	switch {
	case addr < RAMSize:
		st.RAMRefs++
		*b.cycles += RAMCycles
	case addr-ROMBase < ROMSize:
		st.FlashRefs++
		*b.cycles += FlashCycles
	case addr >= IOBase:
		st.IORefs++
	default:
		st.OpenRefs++
	}
}

// Peek reads memory without tracing, accounting or device side effects —
// the host-side view used by snapshot export and debugging.
func (b *Bus) Peek(addr uint32, size m68k.Size) uint32 {
	switch {
	case addr < RAMSize:
		return readBE(b.RAM, addr, size)
	case addr-ROMBase < ROMSize:
		return readBE(b.Flash, addr-ROMBase, size)
	}
	return 0
}

// Poke writes memory without tracing or accounting. Pokes to flash are
// allowed (this is how ROM transfer lays down the image).
func (b *Bus) Poke(addr uint32, size m68k.Size, v uint32) {
	switch {
	case addr < RAMSize:
		if b.Watch != nil {
			b.Watch.NoteWrite(addr, size)
		}
		markDirty(b.ramDirty, addr, size)
		writeBE(b.RAM, addr, size, v)
	case addr-ROMBase < ROMSize:
		if b.Watch != nil {
			b.Watch.BumpGeneration()
		}
		markDirty(b.flashDirty, addr-ROMBase, size)
		writeBE(b.Flash, addr-ROMBase, size, v)
	}
}

// ReadTraced reads like the CPU would (counted + traced as a data read)
// when TraceNative is set; otherwise it behaves like Peek. Native OS
// services use it for record data so that, like POSE with Profiling
// enabled, OS work contributes to the reference stream.
func (b *Bus) ReadTraced(addr uint32, size m68k.Size) uint32 {
	if b.TraceNative {
		return b.Read(addr, size, m68k.Read)
	}
	return b.Peek(addr, size)
}

// WriteTraced writes like the CPU would when TraceNative is set.
func (b *Bus) WriteTraced(addr uint32, size m68k.Size, v uint32) {
	if b.TraceNative {
		b.Write(addr, size, v)
		return
	}
	b.Poke(addr, size, v)
}

// PeekBytes copies n bytes starting at addr without tracing.
func (b *Bus) PeekBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(b.Peek(addr+uint32(i), m68k.Byte))
	}
	return out
}

// PokeBytes writes raw bytes without tracing.
func (b *Bus) PokeBytes(addr uint32, data []byte) {
	for i, v := range data {
		b.Poke(addr+uint32(i), m68k.Byte, uint32(v))
	}
}

// BlockBinding describes this bus's memory system to a block engine:
// region layout, per-reference accounting targets and the wake-compare
// register (may be nil). Attach the resulting engine back via Watch so
// writes invalidate its cache.
func (b *Bus) BlockBinding(wakeAt *uint32) m68k.BlockBinding {
	return m68k.BlockBinding{
		Regions: []m68k.BlockRegion{
			{Base: RAMBase, Mem: b.RAM, Cost: RAMCycles, Refs: &b.Stats.RAMRefs, Watched: true, Dirty: b.ramDirty},
			{Base: ROMBase, Mem: b.Flash, Cost: FlashCycles, Refs: &b.Stats.FlashRefs, RO: true, ROWrites: &b.Stats.FlashWrites},
		},
		Fetches: &b.Stats.Fetches,
		Reads:   &b.Stats.Reads,
		Writes:  &b.Stats.Writes,
		Odd:     &b.Stats.OddAccesses,
		WakeAt:  wakeAt,
	}
}

func readBE(mem []byte, addr uint32, size m68k.Size) uint32 {
	if int(addr)+int(size) > len(mem) {
		return 0
	}
	switch size {
	case m68k.Byte:
		return uint32(mem[addr])
	case m68k.Word:
		return uint32(mem[addr])<<8 | uint32(mem[addr+1])
	default:
		return uint32(mem[addr])<<24 | uint32(mem[addr+1])<<16 |
			uint32(mem[addr+2])<<8 | uint32(mem[addr+3])
	}
}

func writeBE(mem []byte, addr uint32, size m68k.Size, v uint32) {
	if int(addr)+int(size) > len(mem) {
		return
	}
	switch size {
	case m68k.Byte:
		mem[addr] = byte(v)
	case m68k.Word:
		mem[addr] = byte(v >> 8)
		mem[addr+1] = byte(v)
	default:
		mem[addr] = byte(v >> 24)
		mem[addr+1] = byte(v >> 16)
		mem[addr+2] = byte(v >> 8)
		mem[addr+3] = byte(v)
	}
}
