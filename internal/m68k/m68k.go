// Package m68k implements an interpreter for the Motorola 68000 integer
// instruction set, the CPU family used by the Dragonball MC68VZ328 found in
// Palm OS devices such as the Palm m515.
//
// The interpreter executes real 68k machine code, maintains the full
// user/supervisor programming model (D0-D7, A0-A7 with separate USP/SSP, PC,
// SR), raises the 68000 exception set (illegal instruction, privilege
// violation, divide by zero, TRAP #n, line-A and line-F emulator traps, and
// autovectored interrupts), and accounts CPU cycles using a table close to
// the 68000 timing manual. Every memory access goes through the Bus
// interface, which is how the surrounding emulator collects the complete
// memory-reference traces the paper's cache case study consumes.
package m68k

import "fmt"

// Size is an operand size in bytes: 1 (byte), 2 (word) or 4 (long).
type Size uint32

// Operand sizes.
const (
	Byte Size = 1
	Word Size = 2
	Long Size = 4
)

// Bits returns the operand width in bits.
func (s Size) Bits() uint { return uint(s) * 8 }

// sizeMask and sizeMSB are indexed by the Size value itself (1, 2, 4).
// A table load beats the equivalent shift expression here: Go's defined
// semantics for variable shifts (count ≥ width yields 0) make the
// compiler guard every such shift, and Mask/MSB sit on the per-operand
// hot path. The &7 keeps the compiler from emitting a bounds check.
var (
	sizeMask = [8]uint32{Byte: 0xFF, Word: 0xFFFF, Long: 0xFFFFFFFF}
	sizeMSB  = [8]uint32{Byte: 0x80, Word: 0x8000, Long: 0x80000000}
)

// Mask returns a mask covering the operand width.
func (s Size) Mask() uint32 { return sizeMask[s&7] }

// MSB returns the sign bit for the operand width.
func (s Size) MSB() uint32 { return sizeMSB[s&7] }

func (s Size) String() string {
	switch s {
	case Byte:
		return "b"
	case Word:
		return "w"
	default:
		return "l"
	}
}

// Access distinguishes instruction fetches from data references on the bus.
// The distinction matters to the trace collector: the paper's case study
// attributes fetches to flash (where code lives) and most data to RAM.
type Access uint8

// Access kinds.
const (
	Fetch Access = iota // instruction stream read
	Read                // data read
	Write               // data write
)

func (a Access) String() string {
	switch a {
	case Fetch:
		return "fetch"
	case Read:
		return "read"
	default:
		return "write"
	}
}

// Bus is the CPU's connection to the memory system. Addresses are physical;
// the 68000 has a 24-bit external bus but the VZ328 decodes 32-bit internal
// addresses, so implementations receive the full 32-bit address.
//
// Read returns the value zero-extended into a uint32. Implementations must
// tolerate any address (returning open-bus values or raising a machine-level
// fault out of band) — the CPU core itself never panics on a bus access.
type Bus interface {
	Read(addr uint32, size Size, kind Access) uint32
	Write(addr uint32, size Size, value uint32)
}

// Status register bits.
const (
	FlagC uint16 = 1 << 0 // carry
	FlagV uint16 = 1 << 1 // overflow
	FlagZ uint16 = 1 << 2 // zero
	FlagN uint16 = 1 << 3 // negative
	FlagX uint16 = 1 << 4 // extend

	FlagS uint16 = 1 << 13 // supervisor state
	FlagT uint16 = 1 << 15 // trace mode

	ccrMask = FlagC | FlagV | FlagZ | FlagN | FlagX
	srMask  = 0xA71F // implemented SR bits on the 68000
)

// Exception vector numbers (68000).
const (
	VecResetSSP   = 0
	VecResetPC    = 1
	VecBusError   = 2
	VecAddressErr = 3
	VecIllegal    = 4
	VecZeroDivide = 5
	VecCHK        = 6
	VecTRAPV      = 7
	VecPrivilege  = 8
	VecTrace      = 9
	VecLineA      = 10
	VecLineF      = 11
	VecSpurious   = 24
	VecAutovector = 24 // + interrupt level (1..7)
	VecTrapBase   = 32 // TRAP #0..#15 -> 32..47
)

// CPU is a Motorola 68000 processor core. The zero value is not ready for
// use; create one with New and call Reset before stepping.
type CPU struct {
	D  [8]uint32 // data registers
	A  [8]uint32 // address registers; A[7] is the active stack pointer
	PC uint32
	sr uint16

	// The inactive stack pointer. When SR.S is set, A[7] is the SSP and
	// usp holds the user stack pointer, and vice versa.
	osp uint32

	bus Bus

	// Cycles counts elapsed CPU clock cycles since Reset.
	Cycles uint64

	// Instructions counts retired instructions since Reset.
	Instructions uint64

	stopped bool
	halted  bool

	pendingIRQ uint8 // highest pending interrupt level, 0 = none

	// OnLineA, if non-nil, is consulted before raising the line-A
	// exception. If it returns true the opcode is considered handled
	// natively (the hook must have updated machine state, including PC)
	// and no exception is raised. This is the mechanism the emulator uses
	// for POSE-style native trap dispatch when Profiling is disabled.
	OnLineA func(opcode uint16) bool

	// OnLineF, if non-nil, is consulted before raising the line-F
	// exception, in the same way as OnLineA. The synthetic ROM uses line-F
	// opcodes as "native call gates" for OS services implemented in Go.
	OnLineF func(opcode uint16) bool

	// OnReset, if non-nil, is invoked when the RESET instruction executes
	// (it asserts the external reset line; peripherals may want to know).
	OnReset func()

	// OpcodeCount, when non-nil (length 65536), is incremented per
	// executed opcode — the paper's §2.4.2 opcode usage statistic ("we
	// treated each executed opcode as an index into an array, and
	// incremented the respective array element").
	OpcodeCount []uint64

	// OnExec, when non-nil, observes every retired instruction (its PC
	// and opcode) — the "complete instruction traces" of the paper's
	// CITCAT lineage, including interrupt handlers and supervisor code.
	OnExec func(pc uint32, opcode uint16)

	// IllegalOps counts illegal-instruction exceptions raised. The
	// increment sits on the cold exception path, so it is unconditional
	// (no observability gate needed).
	IllegalOps uint64

	// err records a fault raised mid-instruction (double faults, vector
	// table corruption). It halts the CPU.
	err error

	// Block-execution state (block.go). While a BlockEngine runs a
	// translated block, code/codeBase expose the block's bytes so fetch16
	// and fetch32 read the instruction stream directly instead of calling
	// through the bus interface; fetchRef replays the accounting the bus
	// would have done. Outside block execution code is nil and the fields
	// are inert.
	code      []byte
	codeBase  uint32
	fetchCost uint64  // cycles per fetch reference in the active window
	fetchRefs *uint64 // region reference counter for window fetches
	fetchKind *uint64 // bus fetch-kind counter

	// fTrace, when non-nil, receives every reference the block engine
	// serves without the bus: code-window fetches and fast data accesses
	// (BlockEngine.SetTrace).
	fTrace func(addr uint32, size Size, kind Access)

	// fast, bound by NewBlockEngine, short-circuits RAM and flash data
	// accesses without the bus interface call; other regions fall through
	// to the bus. Nil on a CPU without a block engine.
	fast *fastMem
}

// New returns a CPU connected to bus. Call Reset to begin execution.
func New(bus Bus) *CPU {
	return &CPU{bus: bus}
}

// Bus returns the bus the CPU is connected to.
func (c *CPU) Bus() Bus { return c.bus }

// Err returns the fault that halted the CPU, if any.
func (c *CPU) Err() error { return c.err }

// Halted reports whether the CPU has double-faulted and stopped for good.
func (c *CPU) Halted() bool { return c.halted }

// Stopped reports whether the CPU is in the STOP state awaiting an
// interrupt.
func (c *CPU) Stopped() bool { return c.stopped }

// Resume clears the STOP state without an interrupt — a debugger/testing
// facility for redirecting a parked machine (set PC/SR first).
func (c *CPU) Resume() { c.stopped = false }

// SR returns the full status register.
func (c *CPU) SR() uint16 { return c.sr }

// SetSR sets the full status register, handling supervisor-bit stack swaps.
func (c *CPU) SetSR(v uint16) {
	v &= srMask
	if (v^c.sr)&FlagS != 0 {
		c.A[7], c.osp = c.osp, c.A[7]
	}
	c.sr = v
}

// CCR returns the condition-code byte of the status register.
func (c *CPU) CCR() uint16 { return c.sr & ccrMask }

// SetCCR replaces the condition-code byte, leaving system bits alone.
func (c *CPU) SetCCR(v uint16) { c.sr = c.sr&^ccrMask | v&ccrMask }

// USP returns the user stack pointer regardless of the current state.
func (c *CPU) USP() uint32 {
	if c.sr&FlagS != 0 {
		return c.osp
	}
	return c.A[7]
}

// SetUSP sets the user stack pointer regardless of the current state.
func (c *CPU) SetUSP(v uint32) {
	if c.sr&FlagS != 0 {
		c.osp = v
	} else {
		c.A[7] = v
	}
}

// SSP returns the supervisor stack pointer regardless of the current state.
func (c *CPU) SSP() uint32 {
	if c.sr&FlagS != 0 {
		return c.A[7]
	}
	return c.osp
}

// Supervisor reports whether the CPU is in supervisor state.
func (c *CPU) Supervisor() bool { return c.sr&FlagS != 0 }

// IntMask returns the interrupt priority mask (0..7).
func (c *CPU) IntMask() uint8 { return uint8(c.sr >> 8 & 7) }

func (c *CPU) flag(f uint16) bool { return c.sr&f != 0 }

func (c *CPU) setFlag(f uint16, on bool) {
	if on {
		c.sr |= f
	} else {
		c.sr &^= f
	}
}

// Reset performs the 68000 reset sequence: enter supervisor state, mask all
// interrupts, load SSP from vector 0 and PC from vector 1.
func (c *CPU) Reset() {
	c.sr = FlagS | 0x0700
	c.stopped = false
	c.halted = false
	c.err = nil
	c.A[7] = c.read(0, Long, Read)
	c.PC = c.read(4, Long, Read)
	c.osp = 0
	c.Cycles += 40
}

// SetIRQ sets the pending interrupt level (0 clears). Level 7 is
// non-maskable. The interrupt is taken, if unmasked, before the next
// instruction. The interrupt controller must keep the level asserted until
// acknowledged; this core auto-clears the pending level when it takes the
// interrupt and calls no acknowledge hook, which matches the autovectored
// Dragonball configuration used here.
func (c *CPU) SetIRQ(level uint8) {
	if level > 7 {
		level = 7
	}
	c.pendingIRQ = level
}

// PendingIRQ returns the currently asserted interrupt level.
func (c *CPU) PendingIRQ() uint8 { return c.pendingIRQ }

func (c *CPU) read(addr uint32, size Size, kind Access) uint32 {
	if c.fast != nil {
		if v, ok := c.fast.read(c, addr, size, kind); ok {
			return v
		}
	}
	return c.bus.Read(addr, size, kind)
}

func (c *CPU) write(addr uint32, size Size, v uint32) {
	if c.fast != nil && c.fast.write(c, addr, size, v) {
		return
	}
	c.bus.Write(addr, size, v)
}

// fetchRef replays the accounting a bus fetch would have performed for an
// instruction-stream reference served from the block code window: wait-state
// cycles, the region and kind counters, and the tracer. Fetch addresses are
// always even inside a block (translation refuses odd PCs and instruction
// lengths are multiples of two), so no odd-access check is needed. The body
// is replicated inline in fetch16/fetch32 and BlockEngine.execSpec — the
// per-instruction hot paths — where the call overhead is measurable; keep
// all four sites in sync.
func (c *CPU) fetchRef(addr uint32, size Size) {
	c.Cycles += c.fetchCost
	*c.fetchRefs++
	*c.fetchKind++
	if c.fTrace != nil {
		c.fTrace(addr, size, Fetch)
	}
}

func (c *CPU) fetch16() uint16 {
	// Block code window fast path: a direct big-endian slice read plus
	// replayed accounting (fetchRef inlined by hand). When no window is
	// bound, code is nil and the bound check fails (off wraps huge for PCs
	// below codeBase).
	if off := uint64(c.PC) - uint64(c.codeBase); off+2 <= uint64(len(c.code)) {
		v := uint16(c.code[off])<<8 | uint16(c.code[off+1])
		c.Cycles += c.fetchCost
		*c.fetchRefs++
		*c.fetchKind++
		if c.fTrace != nil {
			c.fTrace(c.PC, Word, Fetch)
		}
		c.PC += 2
		return v
	}
	v := uint16(c.read(c.PC, Word, Fetch))
	c.PC += 2
	return v
}

func (c *CPU) fetch32() uint32 {
	if off := uint64(c.PC) - uint64(c.codeBase); off+4 <= uint64(len(c.code)) {
		v := uint32(c.code[off])<<24 | uint32(c.code[off+1])<<16 |
			uint32(c.code[off+2])<<8 | uint32(c.code[off+3])
		c.Cycles += c.fetchCost
		*c.fetchRefs++
		*c.fetchKind++
		if c.fTrace != nil {
			c.fTrace(c.PC, Long, Fetch)
		}
		c.PC += 4
		return v
	}
	v := c.read(c.PC, Long, Fetch)
	c.PC += 4
	return v
}

func (c *CPU) push16(v uint16) {
	c.A[7] -= 2
	c.write(c.A[7], Word, uint32(v))
}

func (c *CPU) push32(v uint32) {
	c.A[7] -= 4
	c.write(c.A[7], Long, v)
}

func (c *CPU) pop16() uint16 {
	v := uint16(c.read(c.A[7], Word, Read))
	c.A[7] += 2
	return v
}

func (c *CPU) pop32() uint32 {
	v := c.read(c.A[7], Long, Read)
	c.A[7] += 4
	return v
}

// Exception performs group 1/2 exception processing for the given vector:
// switch to supervisor state, clear trace, push PC and SR, and load the new
// PC from the vector table.
func (c *CPU) Exception(vector int) {
	oldSR := c.sr
	c.SetSR(c.sr&^FlagT | FlagS)
	c.push32(c.PC)
	c.push16(oldSR)
	c.PC = c.read(uint32(vector)*4, Long, Read)
	if c.PC == 0 {
		// A zero vector almost always means a corrupt vector table; a
		// real chip would merrily jump to the reset vector's
		// neighbourhood, but halting with a diagnostic is far more
		// useful in a simulator.
		c.halt(fmt.Errorf("m68k: exception vector %d is zero (vector table corrupt?)", vector))
	}
	c.Cycles += 34
}

func (c *CPU) interrupt(level uint8) {
	oldSR := c.sr
	c.SetSR(c.sr&^FlagT | FlagS | uint16(level)<<8)
	c.push32(c.PC)
	c.push16(oldSR)
	c.PC = c.read(uint32(VecAutovector+int(level))*4, Long, Read)
	c.pendingIRQ = 0
	c.stopped = false
	c.Cycles += 44
	if c.PC == 0 {
		c.halt(fmt.Errorf("m68k: autovector %d is zero (vector table corrupt?)", level))
	}
}

func (c *CPU) halt(err error) {
	c.halted = true
	if c.err == nil {
		c.err = err
	}
}

// Step executes a single instruction (or takes a pending exception or
// interrupt) and returns the number of CPU cycles it consumed. A stopped CPU
// with no deliverable interrupt consumes a nominal 4 cycles. A halted CPU
// consumes nothing.
func (c *CPU) Step() uint64 {
	if c.halted {
		return 0
	}
	start := c.Cycles
	if c.pendingIRQ > 0 && (c.pendingIRQ == 7 || c.pendingIRQ > c.IntMask()) {
		c.interrupt(c.pendingIRQ)
		return c.Cycles - start
	}
	if c.stopped {
		c.Cycles += 4
		return 4
	}
	if c.sr&FlagT != 0 {
		// Trace: execute one instruction then take the trace exception.
		c.execOne()
		c.Exception(VecTrace)
		c.Instructions++
		return c.Cycles - start
	}
	c.execOne()
	c.Instructions++
	return c.Cycles - start
}

// Run executes instructions until at least cycles CPU cycles have elapsed,
// the CPU halts, or the CPU stops with interrupts unable to wake it. It
// returns the cycles actually consumed.
func (c *CPU) Run(cycles uint64) uint64 {
	start := c.Cycles
	target := start + cycles
	for c.Cycles < target && !c.halted {
		c.Step()
	}
	return c.Cycles - start
}

func (c *CPU) execOne() {
	pc := c.PC
	opcode := c.fetch16()
	if c.OpcodeCount != nil {
		c.OpcodeCount[opcode]++
	}
	if c.OnExec != nil {
		c.OnExec(pc, opcode)
	}
	c.dispatch(opcode)
}

// illegalOp raises the illegal-instruction exception, rewinding PC to the
// offending opcode as the 68000 stacks it for group 1 exceptions.
func (c *CPU) illegalOp() {
	c.IllegalOps++
	c.PC -= 2
	c.Exception(VecIllegal)
}

func (c *CPU) privilegeViolation() {
	c.PC -= 2
	c.Exception(VecPrivilege)
}

// String summarizes the register file; handy in failing tests.
func (c *CPU) String() string {
	return fmt.Sprintf(
		"PC=%08X SR=%04X D=%08X %08X %08X %08X %08X %08X %08X %08X A=%08X %08X %08X %08X %08X %08X %08X %08X",
		c.PC, c.sr,
		c.D[0], c.D[1], c.D[2], c.D[3], c.D[4], c.D[5], c.D[6], c.D[7],
		c.A[0], c.A[1], c.A[2], c.A[3], c.A[4], c.A[5], c.A[6], c.A[7])
}
