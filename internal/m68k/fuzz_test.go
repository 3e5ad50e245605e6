package m68k

import (
	"math/rand"
	"testing"
)

// TestEveryOpcodeEitherExecutesOrTraps sweeps the entire 16-bit opcode
// space: each opcode, followed by arbitrary extension words, must either
// execute or raise a 68000 exception — the interpreter must never panic
// and never hand back a zero-length instruction.
func TestEveryOpcodeEitherExecutesOrTraps(t *testing.T) {
	b := &testBus{}
	for op := 0; op < 0x10000; op++ {
		c := newTestCPUOn(b, uint16(op), 0x0000, 0x0000, 0x0000)
		// Give the registers harmless values so EAs resolve into RAM.
		for i := range c.D {
			c.D[i] = uint32(0x2000 + i*16)
		}
		for i := 0; i < 7; i++ {
			c.A[i] = uint32(0x3000 + i*32)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("opcode %04X panicked: %v", op, r)
				}
			}()
			c.Step()
		}()
	}
}

// TestRandomInstructionStreams executes streams of random words as code:
// the CPU must grind through garbage (taking exceptions as needed) without
// panicking or losing cycle accounting.
func TestRandomInstructionStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	for trial := 0; trial < 50; trial++ {
		words := make([]uint16, 64)
		for i := range words {
			words[i] = uint16(rng.Intn(0x10000))
		}
		c, _ := newTestCPU(words...)
		for i := range c.A {
			c.A[i] = uint32(0x4000 + i*64)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v (PC=%#x)", trial, r, c.PC)
				}
			}()
			last := c.Cycles
			for step := 0; step < 500 && !c.Halted(); step++ {
				c.Step()
				if c.Cycles < last {
					t.Fatalf("trial %d: cycle counter went backwards", trial)
				}
				last = c.Cycles
			}
		}()
	}
}

// FuzzExecuteStream feeds arbitrary bytes to the CPU as code: the
// interpreter must grind through any instruction stream — taking
// exceptions as needed — without panicking and with monotonic cycle
// accounting. This is the go-fuzz form of the random-stream test above;
// CI runs it for a few seconds per PR (fuzz-smoke), and longer local runs
// explore the corpus.
func FuzzExecuteStream(f *testing.F) {
	f.Add([]byte{0x70, 0x05})                         // MOVEQ #5,D0
	f.Add([]byte{0x30, 0xBC, 0x12, 0x34})             // MOVE.W #$1234,(A0)
	f.Add([]byte{0x4E, 0x75})                         // RTS into the park loop
	f.Add([]byte{0xA0, 0x00})                         // line-A trap
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00, 0x4A, 0xFC}) // line-F, zeros, ILLEGAL
	f.Fuzz(func(t *testing.T, code []byte) {
		words := make([]uint16, 0, 64)
		for i := 0; i+1 < len(code) && len(words) < 64; i += 2 {
			words = append(words, uint16(code[i])<<8|uint16(code[i+1]))
		}
		c, _ := newTestCPU(words...)
		for i := range c.D {
			c.D[i] = uint32(0x2000 + i*16)
		}
		for i := 0; i < 7; i++ {
			c.A[i] = uint32(0x3000 + i*32)
		}
		last := c.Cycles
		for step := 0; step < 500 && !c.Halted(); step++ {
			c.Step()
			if c.Cycles < last {
				t.Fatalf("cycle counter went backwards at PC=%#x", c.PC)
			}
			last = c.Cycles
		}
	})
}

// FuzzDisassemble decodes arbitrary bytes: the disassembler must return a
// nonempty mnemonic and a sane instruction size for any input.
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{0x70, 0x05})
	f.Add([]byte{0x4E, 0xB9, 0x00, 0x01, 0x00, 0x00}) // JSR abs.l
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, code []byte) {
		b := &testBus{}
		for i := 0; i < len(code) && i < 16; i++ {
			b.mem[0x1000+i] = code[i]
		}
		text, size := Disassemble(b, 0x1000)
		if size == 0 || size > 10 {
			t.Fatalf("size %d for %x", size, code)
		}
		if text == "" {
			t.Fatalf("empty disassembly for %x", code)
		}
	})
}

// TestDisassemblerNeverPanics sweeps the opcode space through the
// disassembler with arbitrary extension words.
func TestDisassemblerNeverPanics(t *testing.T) {
	b := &testBus{}
	for op := 0; op < 0x10000; op++ {
		b.put16(0x1000, uint16(op))
		b.put16(0x1002, 0x1234)
		b.put16(0x1004, 0x5678)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("disassembling %04X panicked: %v", op, r)
				}
			}()
			text, size := Disassemble(b, 0x1000)
			if size == 0 || size > 10 {
				t.Fatalf("opcode %04X: size %d", op, size)
			}
			if text == "" {
				t.Fatalf("opcode %04X: empty text", op)
			}
		}()
	}
}
