package m68k

// testBus is a flat 1 MiB big-endian RAM used by the CPU unit tests.
// Addresses wrap at the RAM size so vector-table accesses at 0 and
// high-address stack pushes both land in the array. Like a region of the
// real bus (bus.readBE/writeBE) and the spec engine's fastMem, it discards
// an access that straddles the top of the RAM whole: the read returns 0
// and the write changes nothing.
type testBus struct {
	mem      [1 << 20]byte
	accesses []busAccess
	record   bool

	// onWrite, when non-nil, observes every bus write (wrapped address)
	// — the hook the block-engine tests use to invalidate cached
	// translations.
	onWrite func(addr uint32, size Size)
}

type busAccess struct {
	addr uint32
	size Size
	kind Access
}

const testBusMask = 1<<20 - 1

// straddles reports whether an access at the wrapped address a runs past
// the top of the RAM.
func straddles(a uint32, size Size) bool { return a+uint32(size) > testBusMask+1 }

func (b *testBus) Read(addr uint32, size Size, kind Access) uint32 {
	if b.record {
		b.accesses = append(b.accesses, busAccess{addr, size, kind})
	}
	a := addr & testBusMask
	if straddles(a, size) {
		return 0
	}
	switch size {
	case Byte:
		return uint32(b.mem[a])
	case Word:
		return uint32(b.mem[a])<<8 | uint32(b.mem[a+1])
	default:
		return uint32(b.mem[a])<<24 | uint32(b.mem[a+1])<<16 |
			uint32(b.mem[a+2])<<8 | uint32(b.mem[a+3])
	}
}

func (b *testBus) Write(addr uint32, size Size, v uint32) {
	if b.record {
		b.accesses = append(b.accesses, busAccess{addr, size, Write})
	}
	a := addr & testBusMask
	if b.onWrite != nil {
		b.onWrite(a, size)
	}
	if straddles(a, size) {
		return
	}
	switch size {
	case Byte:
		b.mem[a] = byte(v)
	case Word:
		b.mem[a] = byte(v >> 8)
		b.mem[a+1] = byte(v)
	default:
		b.mem[a] = byte(v >> 24)
		b.mem[a+1] = byte(v >> 16)
		b.mem[a+2] = byte(v >> 8)
		b.mem[a+3] = byte(v)
	}
}

func (b *testBus) put16(addr uint32, v uint16) {
	b.mem[addr] = byte(v >> 8)
	b.mem[addr+1] = byte(v)
}

func (b *testBus) put32(addr uint32, v uint32) {
	b.put16(addr, uint16(v>>16))
	b.put16(addr+2, uint16(v))
}

const (
	testCodeBase = 0x1000
	testStackTop = 0x8000
	testHaltTrap = 15 // TRAP #15 ends a test program
	testHaltVec  = 0x0F00
)

// newTestCPU builds a CPU whose reset vector points at code assembled from
// the given opcode words, with the stack at testStackTop. TRAP #15 jumps to
// a recognizable parking address so tests can run "to completion".
func newTestCPU(words ...uint16) (*CPU, *testBus) {
	b := &testBus{}
	return newTestCPUOn(b, words...), b
}

// newTestCPUOn is newTestCPU on a caller-owned bus. It first clears the
// memory and the access recording, turns recording off and detaches the
// write hook, so a loop over many programs can recycle one bus instead of
// allocating 1 MiB per program.
func newTestCPUOn(b *testBus, words ...uint16) *CPU {
	clear(b.mem[:])
	b.accesses = b.accesses[:0]
	b.record = false
	b.onWrite = nil
	b.put32(0, testStackTop) // reset SSP
	b.put32(4, testCodeBase) // reset PC
	// Point every other vector at a parking loop too, so unexpected
	// exceptions are visible as a halt at a known PC rather than chaos.
	for v := 2; v < 64; v++ {
		b.put32(uint32(v)*4, testHaltVec)
	}
	b.put16(testHaltVec, 0x60FE) // BRA.S *
	addr := uint32(testCodeBase)
	for _, w := range words {
		b.put16(addr, w)
		addr += 2
	}
	// Terminate with TRAP #15 in case the test doesn't.
	b.put16(addr, 0x4E4F)
	c := New(b)
	c.Reset()
	return c
}

// runSteps steps the CPU n times.
func runSteps(c *CPU, n int) {
	for i := 0; i < n; i++ {
		c.Step()
	}
}

// runUntilHaltPark steps until PC reaches the parking loop (or limit).
func runUntilHaltPark(c *CPU, limit int) bool {
	for i := 0; i < limit; i++ {
		if c.PC == testHaltVec {
			return true
		}
		c.Step()
	}
	return c.PC == testHaltVec
}
