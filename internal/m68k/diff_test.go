package m68k

import (
	"math/rand"
	"testing"
)

// Differential tests: the legacy nested-switch interpreter (decode.go and
// ops_*.go, which CPU.Step runs: the executable specification) and the
// specialized superblock engine (block.go + spec.go) over identical
// recording buses must be externally indistinguishable: same registers,
// flags, cycle counts, instruction counts, halt state and, access for
// access, the same bus traffic. The engine also trusts table.go's
// annotations to find block boundaries and instruction lengths;
// checkAnnotation holds those against the legacy interpreter directly.

// diffPair builds two CPUs on fresh recording buses executing the same
// code: [0] runs CPU.Step (legacy), [1] the spec engine (the engine is
// returned so tests can drive and inspect it).
func diffPair(words []uint16, seed int64) ([2]*CPU, [2]*testBus, *BlockEngine) {
	buses := [2]*testBus{{}, {}}
	cpus, eng := diffPairOn(buses, words, seed)
	return cpus, buses, eng
}

// diffPairOn is diffPair on caller-owned buses, which it resets first
// (newTestCPUOn), so a loop over many programs can recycle two buses
// instead of allocating 2 MiB per program.
func diffPairOn(buses [2]*testBus, words []uint16, seed int64) ([2]*CPU, *BlockEngine) {
	var cpus [2]*CPU
	for i, b := range buses {
		cpus[i] = newTestCPUOn(b, words...)
	}
	eng := newTestEngine(cpus[1], buses[1])
	rng := rand.New(rand.NewSource(seed))
	for i := range cpus[0].D {
		v := rng.Uint32()
		for _, c := range cpus {
			c.D[i] = v
		}
	}
	for i := 0; i < 7; i++ {
		// Spread address registers through the test bus RAM, word-aligned
		// so pre/post-increment chains stay aligned.
		v := uint32(0x2000+rng.Intn(0xC000)) &^ 1
		for _, c := range cpus {
			c.A[i] = v
		}
	}
	for _, b := range buses {
		b.record = true
	}
	return cpus, eng
}

// newTestEngine binds a block engine to a testBus CPU: the whole test RAM
// is one watched zero-wait-state region, bus writes invalidate through the
// onWrite hook, and every reference the engine serves itself (code-window
// fetches and fastMem's data accesses) reaches the access recording
// through the trace hook, exactly where a bus access would append it. So
// the recording holds fastMem to the legacy bus access for access.
func newTestEngine(c *CPU, b *testBus) *BlockEngine {
	eng := NewBlockEngine(c, BlockBinding{
		Regions: []BlockRegion{{Base: 0, Mem: b.mem[:], Watched: true}},
	})
	b.onWrite = eng.NoteWrite
	eng.SetTrace(func(addr uint32, size Size, kind Access) {
		if b.record {
			b.accesses = append(b.accesses, busAccess{addr, size, kind})
		}
	})
	return eng
}

// compareEngines fails on the first divergence between the legacy CPU and
// the spec engine's CPU, including the recorded bus streams.
func compareEngines(t *testing.T, step int, ref, got *CPU, rb, gb *testBus) {
	t.Helper()
	if ref.PC != got.PC || ref.sr != got.sr ||
		ref.Cycles != got.Cycles ||
		ref.Instructions != got.Instructions ||
		ref.osp != got.osp ||
		ref.stopped != got.stopped || ref.halted != got.halted ||
		ref.D != got.D || ref.A != got.A {
		t.Fatalf("spec state diverged at step %d:\nlegacy: %v stopped=%v halted=%v cycles=%d instr=%d\nspec: %v stopped=%v halted=%v cycles=%d instr=%d",
			step, ref, ref.stopped, ref.halted, ref.Cycles, ref.Instructions,
			got, got.stopped, got.halted, got.Cycles, got.Instructions)
	}
	if len(rb.accesses) != len(gb.accesses) {
		t.Fatalf("spec bus trace length diverged at step %d: legacy %d accesses, spec %d\nPC=%#x",
			step, len(rb.accesses), len(gb.accesses), ref.PC)
	}
	for i := range rb.accesses {
		if rb.accesses[i] != gb.accesses[i] {
			t.Fatalf("spec bus access %d diverged at step %d: legacy %+v, spec %+v",
				i, step, rb.accesses[i], gb.accesses[i])
		}
	}
}

// lockstepCompare advances both engines one instruction at a time and
// fails on the first divergence. RunUntil with a limit already reached
// executes exactly one Step-equivalent quantum, which is what makes
// per-instruction lockstep possible against the block engine.
func lockstepCompare(t *testing.T, cpus [2]*CPU, buses [2]*testBus, eng *BlockEngine, steps int) {
	t.Helper()
	legacy, spc := cpus[0], cpus[1]
	for step := 0; step < steps; step++ {
		legacy.Step()
		eng.RunUntil(spc.Cycles + 1)
		compareEngines(t, step, legacy, spc, buses[0], buses[1])
		if legacy.halted {
			return
		}
	}
}

// milestoneCompare drives both engines to shared cycle milestones — the
// way emu.Machine drives the engine to tick boundaries — so whole
// multi-instruction blocks and chained block sequences execute between
// comparisons, including blocks cut short mid-run by the cycle limit.
func milestoneCompare(t *testing.T, cpus [2]*CPU, buses [2]*testBus, eng *BlockEngine, rounds int, quantum uint64) {
	t.Helper()
	legacy, spc := cpus[0], cpus[1]
	for round := 0; round < rounds; round++ {
		limit := legacy.Cycles + quantum
		for legacy.Cycles < limit && !legacy.halted {
			legacy.Step()
		}
		for spc.Cycles < limit && !spc.halted {
			eng.RunUntil(limit)
		}
		compareEngines(t, round, legacy, spc, buses[0], buses[1])
		if legacy.halted {
			return
		}
	}
}

// checkAnnotation holds table.go's annotation of op against the legacy
// interpreter: one Step of op, followed by the extension words ext, in
// user mode, where any exception sets S. A bSafe or bEnd opcode must raise
// no exception, halt or stop; a bSafe opcode must also advance PC by
// exactly 2 + 2·extw, the length the translator steps over. b is reset
// first (newTestCPUOn). Unannotated opcodes promise nothing.
func checkAnnotation(t *testing.T, b *testBus, op uint16, ext []uint16) {
	t.Helper()
	opTableOnce.Do(buildOpTable)
	ent := &opTable[op]
	if ent.bflags == 0 {
		return
	}
	c := newTestCPUOn(b, append([]uint16{op}, ext...)...)
	c.SetSR(0) // user mode, A7 is now the user stack pointer
	for i := range c.D {
		c.D[i] = uint32(0x2000 + i*16)
	}
	for i := range c.A {
		c.A[i] = uint32(0x3000 + i*32)
	}
	pc := c.PC
	c.Step()
	if c.sr&FlagS != 0 || c.halted || c.stopped {
		t.Fatalf("opcode %04X (bflags %d) with ext %04X: exception, halt or stop (PC=%#x SR=%#x halted=%v stopped=%v)",
			op, ent.bflags, ext, c.PC, c.sr, c.halted, c.stopped)
	}
	if want := pc + 2 + 2*uint32(ent.extw); ent.bflags&bSafe != 0 && c.PC != want {
		t.Fatalf("opcode %04X with ext %04X: PC advanced to %#x, extw %d says %#x",
			op, ext, c.PC, ent.extw, want)
	}
}

// TestDifferentialOpcodeSweep runs every single opcode, with fixed
// extension words, through both engines in lockstep, and first holds the
// opcode's annotation to its contract (checkAnnotation) with the same
// words. The two buses are recycled across opcodes: allocating a bus per
// opcode dominated the package's test time.
func TestDifferentialOpcodeSweep(t *testing.T) {
	buses := [2]*testBus{{}, {}}
	ext := []uint16{0x0004, 0x0010, 0x0002}
	for op := 0; op < 0x10000; op++ {
		checkAnnotation(t, buses[0], uint16(op), ext)
		words := append([]uint16{uint16(op)}, ext...)
		cpus, eng := diffPairOn(buses, words, int64(op))
		lockstepCompare(t, cpus, buses, eng, 3)
	}
}

// TestDifferentialRandomStreams runs seeded random instruction streams
// through both engines for many steps, letting exceptions, stack traffic
// and EA side effects accumulate.
func TestDifferentialRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint16, 96)
		for i := range words {
			words[i] = uint16(rng.Intn(0x10000))
		}
		cpus, buses, eng := diffPair(words, int64(trial))
		lockstepCompare(t, cpus, buses, eng, 400)
	}
}

// TestDifferentialStraddleTopOfRAM makes word and long reads and writes
// that straddle the top of the test RAM, where the spec engine's fastMem
// discards the access whole (as bus.readBE/writeBE do), and holds it to the
// legacy bus in lockstep. Reading back the bytes the writes would have
// wrapped onto, and comparing the final memories, shows any write that was
// not discarded.
func TestDifferentialStraddleTopOfRAM(t *testing.T) {
	top := uint32(len(testBus{}.mem))
	words := []uint16{
		0x207C, uint16((top - 2) >> 16), uint16(top - 2), // MOVEA.L #top-2,A0
		0x2010,         // MOVE.L (A0),D0: long read across the top
		0x3228, 0x0001, // MOVE.W 1(A0),D1: word read across the top
		0x2082,         // MOVE.L D2,(A0): long write across the top
		0x3143, 0x0001, // MOVE.W D3,1(A0): word write across the top
		0x23C7, uint16((top - 1) >> 16), uint16(top - 1), // MOVE.L D7,top-1.L
		0x2828, 0xFFFE, // MOVE.L -2(A0),D4: the top four bytes back
		0x2A38, 0x0000, // MOVE.L $0.W,D5: the bytes a wrap would hit
		0x2C39, uint16((top - 3) >> 16), uint16(top - 3), // MOVE.L top-3.L,D6
	}
	cpus, buses, eng := diffPair(words, 1)
	for _, b := range buses {
		copy(b.mem[top-4:], []byte{0x11, 0x22, 0x33, 0x44})
	}
	lockstepCompare(t, cpus, buses, eng, 9)
	if cpus[1].PC != testCodeBase+2*uint32(len(words)) {
		t.Fatalf("spec engine stopped at PC=%#x before the end of the row", cpus[1].PC)
	}
	if got := cpus[1].D[4]; got != 0x11223344 {
		t.Errorf("D4 = %#x after straddling writes, want 0x11223344 (top bytes unchanged)", got)
	}
	if d := cpus[1].D; d[0] != 0 || uint16(d[1]) != 0 || d[6] != 0 {
		t.Errorf("straddling reads loaded D0=%#x D1.W=%#x D6=%#x, want 0", d[0], uint16(d[1]), d[6])
	}
	if buses[0].mem != buses[1].mem {
		t.Error("memory diverged after straddling writes")
	}
}

// blockSafeStream assembles a random instruction stream dominated by
// block-translatable opcodes — dense straight-line runs with occasional
// short branches — so translated multi-instruction blocks, not fallback
// stepping, carry the execution.
func blockSafeStream(rng *rand.Rand, n int) []uint16 {
	var words []uint16
	dn := func() uint16 { return uint16(rng.Intn(8)) }
	an := func() uint16 { return uint16(rng.Intn(7)) } // spare A7 for the stack
	for len(words) < n {
		switch rng.Intn(14) {
		case 0: // MOVEQ #imm,Dn
			words = append(words, 0x7000|dn()<<9|uint16(rng.Intn(256)))
		case 1: // ADDQ.W #q,Dn
			words = append(words, 0x5040|uint16(1+rng.Intn(7))<<9|dn())
		case 2: // MOVE.W Dm,Dn
			words = append(words, 0x3000|dn()<<9|dn())
		case 3: // MOVE.W (Am),Dn
			words = append(words, 0x3010|dn()<<9|an())
		case 4: // MOVE.W Dm,(An)
			words = append(words, 0x3080|an()<<9|dn())
		case 5: // MOVE.W d16(Am),Dn
			words = append(words, 0x3028|dn()<<9|an(), uint16(rng.Intn(0x100))&^1)
		case 6: // LEA d16(Am),An
			words = append(words, 0x41E8|an()<<9|an(), uint16(rng.Intn(0x100))&^1)
		case 7: // CMP.W Dm,Dn
			words = append(words, 0xB040|dn()<<9|dn())
		case 8: // SWAP Dn
			words = append(words, 0x4840|dn())
		case 9: // EXT.W Dn
			words = append(words, 0x4880|dn())
		case 10: // TST.W Dn
			words = append(words, 0x4A40|dn())
		case 11: // NOP
			words = append(words, 0x4E71)
		case 12: // Bcc.S +2 (skip nothing: a taken/untaken short branch)
			words = append(words, 0x6000|uint16(rng.Intn(15))<<8|0x02, 0x4E71)
		case 13: // DBF Dn,-2 (counts Dn down with a tight backward loop)
			words = append(words, 0x7000|dn()<<9|uint16(rng.Intn(4)), // keep the count tiny
				0x51C8|dn(), 0xFFFE)
		}
	}
	return words
}

// TestDifferentialBlockStreams runs block-dense instruction streams through
// both engines, comparing at coarse cycle milestones so real
// multi-instruction blocks (and mid-block cycle-limit breaks) execute
// between checks, then re-runs a fresh pair in per-instruction lockstep.
func TestDifferentialBlockStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(20050406))
	for trial := 0; trial < 100; trial++ {
		words := blockSafeStream(rng, 80)
		quantum := uint64(1 + rng.Intn(300))
		cpus, buses, eng := diffPair(words, int64(trial))
		milestoneCompare(t, cpus, buses, eng, 50, quantum)
		cpus, buses, eng = diffPair(words, int64(trial))
		lockstepCompare(t, cpus, buses, eng, 600)
	}
}

// TestDifferentialSpecNoChain re-runs the block-dense streams with
// chaining off, isolating the specialized handlers from the chaining
// layer: a divergence here but not in TestDifferentialBlockStreams points
// at a handler, and vice versa at the chain transition.
func TestDifferentialSpecNoChain(t *testing.T) {
	rng := rand.New(rand.NewSource(20050407))
	for trial := 0; trial < 50; trial++ {
		words := blockSafeStream(rng, 80)
		quantum := uint64(1 + rng.Intn(300))
		cpus, buses, eng := diffPair(words, int64(trial))
		eng.setChaining(false)
		milestoneCompare(t, cpus, buses, eng, 50, quantum)
	}
}

// TestDifferentialSpecFastLoop runs the spec engine with no trace,
// opcode-count or exec hooks bound — the configuration benchmarks and
// untraced replays measure, where execSpec skips every hook — comparing
// architectural state, cycle and instruction counts against the legacy
// interpreter at cycle milestones. The recording variants above always
// bind the trace hook.
func TestDifferentialSpecFastLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20050408))
	for trial := 0; trial < 50; trial++ {
		words := blockSafeStream(rng, 80)
		quantum := uint64(1 + rng.Intn(300))
		ref, _ := newTestCPU(words...)
		got, gb := newTestCPU(words...)
		eng := NewBlockEngine(got, BlockBinding{
			Regions: []BlockRegion{{Base: 0, Mem: gb.mem[:], Watched: true}},
		})
		gb.onWrite = eng.NoteWrite
		seed := rand.New(rand.NewSource(int64(trial)))
		for i := range ref.D {
			v := seed.Uint32()
			ref.D[i] = v
			got.D[i] = v
		}
		for i := 0; i < 7; i++ {
			v := uint32(0x2000+seed.Intn(0xC000)) &^ 1
			ref.A[i] = v
			got.A[i] = v
		}
		for round := 0; round < 50; round++ {
			limit := ref.Cycles + quantum
			for ref.Cycles < limit && !ref.halted {
				ref.Step()
			}
			for got.Cycles < limit && !got.halted {
				eng.RunUntil(limit)
			}
			if ref.D != got.D || ref.A != got.A || ref.PC != got.PC ||
				ref.sr != got.sr || ref.Cycles != got.Cycles ||
				ref.Instructions != got.Instructions ||
				ref.halted != got.halted || ref.stopped != got.stopped {
				t.Fatalf("trial %d round %d: fast-loop divergence:\nref PC=%#x SR=%#x cyc=%d instr=%d D=%x A=%x\ngot PC=%#x SR=%#x cyc=%d instr=%d D=%x A=%x",
					trial, round,
					ref.PC, ref.sr, ref.Cycles, ref.Instructions, ref.D, ref.A,
					got.PC, got.sr, got.Cycles, got.Instructions, got.D, got.A)
			}
			if ref.halted {
				break
			}
		}
	}
}

// FuzzDifferentialDispatch fuzzes the annotations the translator trusts:
// an opcode plus up to five fuzzed extension words go through
// checkAnnotation (words the instruction reads beyond them are the test
// program's TRAP #15 terminator, then cleared RAM). A wrong bflags or
// extw on any opcode the fuzzer reaches fails here before it can misalign
// a translated block. CI runs this for a 10 s smoke per PR.
func FuzzDifferentialDispatch(f *testing.F) {
	f.Add(uint16(0x7005), []byte{})                          // MOVEQ #5,D0
	f.Add(uint16(0x30BC), []byte{0x12, 0x34})                // MOVE.W #$1234,(A0)
	f.Add(uint16(0xD079), []byte{0x00, 0x00, 0x20, 0x00})    // ADD.W $2000.L,D0
	f.Add(uint16(0xE248), []byte{})                          // LSR.W #1,D0
	f.Add(uint16(0x13C1), []byte{0x00, 0x00, 0x30, 0x00})    // MOVE.B D1,$3000.L
	f.Add(uint16(0x4AFC), []byte{0xFF, 0xFF})                // ILLEGAL (unannotated)
	f.Add(uint16(0x6000), []byte{0x00, 0x10})                // BRA.W
	f.Add(uint16(0x23F0), []byte{0x10, 0x04, 0, 1, 0, 0x20}) // MOVE.L 4(A0,D1.W),$10020.L
	// Inputs run one at a time, and checkAnnotation resets the bus.
	b := &testBus{}
	f.Fuzz(func(t *testing.T, op uint16, code []byte) {
		ext := make([]uint16, 0, 5)
		for i := 0; i+1 < len(code) && len(ext) < 5; i += 2 {
			ext = append(ext, uint16(code[i])<<8|uint16(code[i+1]))
		}
		checkAnnotation(t, b, op, ext)
	})
}

// FuzzBlockDifferential drives both engines, with chaining off, to
// fuzzer-chosen cycle milestones over arbitrary bytes as code, so whole
// blocks (and blocks cut short by the limit) run between comparisons with
// every block transition going through the cache lookup.
// FuzzSpecDifferential is the same with chaining on.
func FuzzBlockDifferential(f *testing.F) {
	f.Add([]byte{0x70, 0x05, 0x4E, 0x71, 0x4E, 0x71}, uint8(40))  // MOVEQ; NOP; NOP
	f.Add([]byte{0x31, 0xFC, 0x4E, 0x71, 0x10, 0x06}, uint8(10))  // MOVE.W #NOP,$1006 (SMC)
	f.Add([]byte{0x51, 0xC8, 0xFF, 0xFE}, uint8(90))              // DBF D0,*-0
	f.Add([]byte{0x60, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(200)) // BRA.S; NOP; RTS
	f.Fuzz(func(t *testing.T, code []byte, q uint8) {
		fuzzMilestones(t, code, q, false)
	})
}

// FuzzSpecDifferential aims the fuzzer at the spec engine's unique
// machinery — specialized handlers, the generic-adapter seam and chain
// patching/severing (its seeds include SMC-prone stores and call/return
// pairs) — driving both engines, chaining on, to fuzzer-chosen milestones.
func FuzzSpecDifferential(f *testing.F) {
	f.Add([]byte{0x70, 0x05, 0x4E, 0x71, 0x4E, 0x71}, uint8(40))  // MOVEQ; NOP; NOP
	f.Add([]byte{0x31, 0xFC, 0x4E, 0x71, 0x10, 0x06}, uint8(10))  // MOVE.W #NOP,$1006 (SMC)
	f.Add([]byte{0x51, 0xC8, 0xFF, 0xFE}, uint8(90))              // DBF D0,*-0
	f.Add([]byte{0x61, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(120)) // BSR.S; NOP; RTS
	f.Add([]byte{0x41, 0xFA, 0x00, 0x04, 0x20, 0x50}, uint8(60))  // LEA d16(PC),A0; MOVEA.L (A0),A0
	f.Add([]byte{0x60, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(200)) // BRA.S; NOP; RTS
	f.Fuzz(func(t *testing.T, code []byte, q uint8) {
		fuzzMilestones(t, code, q, true)
	})
}

// fuzzMilestones is the body of the two milestone fuzzers: code (up to 64
// words) runs on a fresh pair and is compared every q%311+1 cycles.
func fuzzMilestones(t *testing.T, code []byte, q uint8, chaining bool) {
	words := make([]uint16, 0, 64)
	for i := 0; i+1 < len(code) && len(words) < 64; i += 2 {
		words = append(words, uint16(code[i])<<8|uint16(code[i+1]))
	}
	cpus, buses, eng := diffPair(words, int64(len(code)))
	eng.setChaining(chaining)
	milestoneCompare(t, cpus, buses, eng, 40, uint64(q)%311+1)
}
