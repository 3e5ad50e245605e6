package m68k

import (
	"math/rand"
	"testing"
)

// Differential tests: three execution engines over identical recording
// buses — the legacy nested-switch dispatcher (decode.go, the executable
// specification), the pre-decoded dispatch table (table.go, which the spec
// engine falls back to) and the specialized superblock engine (block.go +
// spec.go, chaining on) — must be externally indistinguishable: same
// registers, flags, cycle counts, instruction counts, halt state and,
// access for access, the same bus traffic.

// diffTriple builds three CPUs on fresh recording buses executing the same
// code: [0] legacy switch, [1] table, [2] spec engine (the engine is
// returned so tests can drive and inspect it).
func diffTriple(words []uint16, seed int64) ([3]*CPU, [3]*testBus, *BlockEngine) {
	buses := [3]*testBus{{}, {}, {}}
	cpus, eng := diffTripleOn(buses, words, seed)
	return cpus, buses, eng
}

// diffTripleOn is diffTriple on caller-owned buses, which it resets first
// (newTestCPUOn), so a loop over many programs can recycle three buses
// instead of allocating 3 MiB per program.
func diffTripleOn(buses [3]*testBus, words []uint16, seed int64) ([3]*CPU, *BlockEngine) {
	var cpus [3]*CPU
	for i, b := range buses {
		cpus[i] = newTestCPUOn(b, words...)
	}
	cpus[0].SetLegacyDispatch(true)
	eng := newTestEngine(cpus[2], buses[2])
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
// is one watched zero-wait-state region, writes invalidate through the
// per-byte onWrite hook, and code-window fetches append to the access
// recording exactly like bus fetches do.
func newTestEngine(c *CPU, b *testBus) *BlockEngine {
	eng := NewBlockEngine(c, BlockBinding{
		Regions: []BlockRegion{{Base: 0, Mem: b.mem[:], Watched: true}},
	})
	b.onWrite = eng.NoteWrite
	eng.SetFetchTrace(func(addr uint32, size Size) {
		if b.record {
			b.accesses = append(b.accesses, busAccess{addr, size, Fetch})
		}
	})
	return eng
}

// compareEngines fails on the first divergence between the reference CPU
// (legacy) and another engine's CPU, including the recorded bus streams.
func compareEngines(t *testing.T, step int, name string, ref, got *CPU, rb, gb *testBus) {
	t.Helper()
	if ref.PC != got.PC || ref.sr != got.sr ||
		ref.Cycles != got.Cycles ||
		ref.Instructions != got.Instructions ||
		ref.osp != got.osp ||
		ref.stopped != got.stopped || ref.halted != got.halted ||
		ref.D != got.D || ref.A != got.A {
		t.Fatalf("%s state diverged at step %d:\nlegacy: %v stopped=%v halted=%v cycles=%d instr=%d\n%s: %v stopped=%v halted=%v cycles=%d instr=%d",
			name, step, ref, ref.stopped, ref.halted, ref.Cycles, ref.Instructions,
			name, got, got.stopped, got.halted, got.Cycles, got.Instructions)
	}
	if len(rb.accesses) != len(gb.accesses) {
		t.Fatalf("%s bus trace length diverged at step %d: legacy %d accesses, %s %d\nPC=%#x",
			name, step, len(rb.accesses), name, len(gb.accesses), ref.PC)
	}
	for i := range rb.accesses {
		if rb.accesses[i] != gb.accesses[i] {
			t.Fatalf("%s bus access %d diverged at step %d: legacy %+v, %s %+v",
				name, i, step, rb.accesses[i], name, gb.accesses[i])
		}
	}
}

// lockstepCompare advances all three engines one instruction at a time
// and fails on the first divergence. RunUntil with a limit already reached
// executes exactly one Step-equivalent quantum, which is what makes
// per-instruction lockstep possible against the block engine.
func lockstepCompare(t *testing.T, cpus [3]*CPU, buses [3]*testBus, eng *BlockEngine, steps int) {
	t.Helper()
	legacy, table, spc := cpus[0], cpus[1], cpus[2]
	for step := 0; step < steps; step++ {
		legacy.Step()
		table.Step()
		eng.RunUntil(spc.Cycles + 1)
		compareEngines(t, step, "table", legacy, table, buses[0], buses[1])
		compareEngines(t, step, "spec", legacy, spc, buses[0], buses[2])
		if legacy.halted {
			return
		}
	}
}

// milestoneCompare drives all three engines to shared cycle milestones —
// the way emu.Machine drives the engine to tick boundaries — so whole
// multi-instruction blocks and chained block sequences execute between
// comparisons, including blocks cut short mid-run by the cycle limit.
func milestoneCompare(t *testing.T, cpus [3]*CPU, buses [3]*testBus, eng *BlockEngine, rounds int, quantum uint64) {
	t.Helper()
	legacy, table, spc := cpus[0], cpus[1], cpus[2]
	for round := 0; round < rounds; round++ {
		limit := legacy.Cycles + quantum
		for legacy.Cycles < limit && !legacy.halted {
			legacy.Step()
		}
		for table.Cycles < limit && !table.halted {
			table.Step()
		}
		for spc.Cycles < limit && !spc.halted {
			eng.RunUntil(limit)
		}
		compareEngines(t, round, "table", legacy, table, buses[0], buses[1])
		compareEngines(t, round, "spec", legacy, spc, buses[0], buses[2])
		if legacy.halted {
			return
		}
	}
}

// TestDifferentialOpcodeSweep runs every single opcode, with fixed
// extension words, through all three engines in lockstep. The three buses
// are recycled across opcodes: allocating 3 MiB per opcode dominated the
// package's test time.
func TestDifferentialOpcodeSweep(t *testing.T) {
	buses := [3]*testBus{{}, {}, {}}
	for op := 0; op < 0x10000; op++ {
		words := []uint16{uint16(op), 0x0004, 0x0010, 0x0002}
		cpus, eng := diffTripleOn(buses, words, int64(op))
		lockstepCompare(t, cpus, buses, eng, 3)
	}
}

// TestDifferentialRandomStreams runs seeded random instruction streams
// through all three engines for many steps, letting exceptions, stack
// traffic and EA side effects accumulate.
func TestDifferentialRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint16, 96)
		for i := range words {
			words[i] = uint16(rng.Intn(0x10000))
		}
		cpus, buses, eng := diffTriple(words, int64(trial))
		lockstepCompare(t, cpus, buses, eng, 400)
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
// all three engines, comparing at coarse cycle milestones so real
// multi-instruction blocks (and mid-block cycle-limit breaks) execute
// between checks, then re-runs a fresh triple in per-instruction lockstep.
func TestDifferentialBlockStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(20050406))
	for trial := 0; trial < 100; trial++ {
		words := blockSafeStream(rng, 80)
		quantum := uint64(1 + rng.Intn(300))
		cpus, buses, eng := diffTriple(words, int64(trial))
		milestoneCompare(t, cpus, buses, eng, 50, quantum)
		cpus, buses, eng = diffTriple(words, int64(trial))
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
		cpus, buses, eng := diffTriple(words, int64(trial))
		eng.setChaining(false)
		milestoneCompare(t, cpus, buses, eng, 50, quantum)
	}
}

// TestDifferentialSpecFastLoop runs the spec engine with no fetch-trace,
// opcode-count or exec hooks bound — the configuration execSpec's
// hook-free fast loop serves, and the one benchmarks and untraced
// replays measure — comparing architectural state, cycle and instruction
// counts against the legacy interpreter at cycle milestones. The
// recording variants above cannot reach that loop: binding the fetch
// tracer routes execution through the hooked twin.
func TestDifferentialSpecFastLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20050408))
	for trial := 0; trial < 50; trial++ {
		words := blockSafeStream(rng, 80)
		quantum := uint64(1 + rng.Intn(300))
		ref, _ := newTestCPU(words...)
		ref.SetLegacyDispatch(true)
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

// FuzzDifferentialDispatch is the go-fuzz form: arbitrary bytes as code,
// all three engines in per-instruction lockstep. CI runs this for a 10 s
// smoke per PR.
func FuzzDifferentialDispatch(f *testing.F) {
	f.Add([]byte{0x70, 0x05})                         // MOVEQ #5,D0
	f.Add([]byte{0x30, 0xBC, 0x12, 0x34})             // MOVE.W #$1234,(A0)
	f.Add([]byte{0xD0, 0x79, 0x00, 0x00, 0x20, 0x00}) // ADD.W $2000,D0
	f.Add([]byte{0xE2, 0x48, 0x4E, 0x75})             // LSR.W #1,D0; RTS
	f.Add([]byte{0x13, 0xC1, 0x00, 0x00, 0x30, 0x00}) // MOVE.B D1,$3000
	f.Add([]byte{0x4A, 0xFC, 0xFF, 0xFF})             // ILLEGAL, line-F
	f.Fuzz(func(t *testing.T, code []byte) {
		words := make([]uint16, 0, 64)
		for i := 0; i+1 < len(code) && len(words) < 64; i += 2 {
			words = append(words, uint16(code[i])<<8|uint16(code[i+1]))
		}
		cpus, buses, eng := diffTriple(words, int64(len(code)))
		lockstepCompare(t, cpus, buses, eng, 300)
	})
}

// FuzzBlockDifferential is the fuzz form of TestDifferentialBlockStreams:
// arbitrary bytes as code, all three engines driven to fuzzer-chosen cycle
// milestones, so whole blocks (and blocks cut short by the limit) run
// between comparisons.
func FuzzBlockDifferential(f *testing.F) {
	f.Add([]byte{0x70, 0x05, 0x4E, 0x71, 0x4E, 0x71}, uint8(40))  // MOVEQ; NOP; NOP
	f.Add([]byte{0x31, 0xFC, 0x4E, 0x71, 0x10, 0x06}, uint8(10))  // MOVE.W #NOP,$1006 (SMC)
	f.Add([]byte{0x51, 0xC8, 0xFF, 0xFE}, uint8(90))              // DBF D0,*-0
	f.Add([]byte{0x60, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(200)) // BRA.S; NOP; RTS
	f.Fuzz(func(t *testing.T, code []byte, q uint8) {
		words := make([]uint16, 0, 64)
		for i := 0; i+1 < len(code) && len(words) < 64; i += 2 {
			words = append(words, uint16(code[i])<<8|uint16(code[i+1]))
		}
		quantum := uint64(q)%311 + 1
		cpus, buses, eng := diffTriple(words, int64(len(code)))
		milestoneCompare(t, cpus, buses, eng, 40, quantum)
	})
}

// FuzzSpecDifferential aims the fuzzer at the spec engine's unique
// machinery — specialized handlers, the generic-adapter seam and chain
// patching/severing — by interleaving fuzzer code with SMC-prone stores
// and comparing only legacy vs spec at fuzzer-chosen milestones, leaving
// the whole cycle budget to the engine under test.
func FuzzSpecDifferential(f *testing.F) {
	f.Add([]byte{0x70, 0x05, 0x4E, 0x71, 0x4E, 0x71}, uint8(40))  // MOVEQ; NOP; NOP
	f.Add([]byte{0x31, 0xFC, 0x4E, 0x71, 0x10, 0x06}, uint8(10))  // MOVE.W #NOP,$1006 (SMC)
	f.Add([]byte{0x51, 0xC8, 0xFF, 0xFE}, uint8(90))              // DBF D0,*-0
	f.Add([]byte{0x61, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(120)) // BSR.S; NOP; RTS
	f.Add([]byte{0x41, 0xFA, 0x00, 0x04, 0x20, 0x50}, uint8(60))  // LEA d16(PC),A0; MOVEA.L (A0),A0
	f.Add([]byte{0x60, 0x02, 0x4E, 0x71, 0x4E, 0x75}, uint8(200)) // BRA.S; NOP; RTS
	f.Fuzz(func(t *testing.T, code []byte, q uint8) {
		words := make([]uint16, 0, 64)
		for i := 0; i+1 < len(code) && len(words) < 64; i += 2 {
			words = append(words, uint16(code[i])<<8|uint16(code[i+1]))
		}
		quantum := uint64(q)%311 + 1
		cpus, buses, eng := diffTriple(words, int64(len(code)))
		legacy, spc := cpus[0], cpus[2]
		for round := 0; round < 40; round++ {
			limit := legacy.Cycles + quantum
			for legacy.Cycles < limit && !legacy.halted {
				legacy.Step()
			}
			for spc.Cycles < limit && !spc.halted {
				eng.RunUntil(limit)
			}
			compareEngines(t, round, "spec", legacy, spc, buses[0], buses[2])
			if legacy.halted {
				return
			}
		}
	})
}
