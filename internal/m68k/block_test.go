package m68k

import (
	"math/rand"
	"testing"
)

// Block-engine unit tests: cache mechanics (translation into specialized
// ops, lookup, watch marks), invalidation by self-modifying code,
// boundary-straddling writes, generation bumps, and the exec-loop break
// conditions. The differential
// tests (diff_test.go) prove bit-identity; these pin down the engine's
// internal behavior so a regression fails with a named cause instead of a
// stream divergence.

// asm lays words into the test bus at addr.
func asm(b *testBus, addr uint32, words ...uint16) {
	for _, w := range words {
		b.put16(addr, w)
		addr += 2
	}
}

func TestBlockTranslateStraightLine(t *testing.T) {
	c, b := newTestCPU(
		0x7001, // MOVEQ #1,D0
		0x5240, // ADDQ.W #1,D0
		0x4E71, // NOP
		0x4E75, // RTS — control transfer ends the block
		0x7002, // MOVEQ #2,D0 (not part of the block)
	)
	eng := newTestEngine(c, b)
	blk := eng.lookup(testCodeBase)
	if blk.sops == nil {
		t.Fatalf("straight-line run did not translate")
	}
	if len(blk.sops) != 4 {
		t.Fatalf("block has %d ops, want 4 (ends at RTS)", len(blk.sops))
	}
	if blk.end != testCodeBase+8 {
		t.Fatalf("block end = %#x, want %#x", blk.end, testCodeBase+8)
	}
	if got := eng.Stats.Translated; got != 1 {
		t.Fatalf("Translated = %d, want 1", got)
	}
	if eng.lookup(testCodeBase) != blk {
		t.Fatalf("second lookup did not hit the cache")
	}
	if eng.Stats.Hits != 1 || eng.Stats.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", eng.Stats.Hits, eng.Stats.Misses)
	}
}

func TestBlockTranslateNegative(t *testing.T) {
	c, b := newTestCPU(0x4E4F) // TRAP #15: excluded from blocks
	eng := newTestEngine(c, b)
	blk := eng.lookup(testCodeBase)
	if blk.sops != nil {
		t.Fatalf("TRAP head translated into a block")
	}
	if eng.lookup(testCodeBase) != blk {
		t.Fatalf("negative block was not cached")
	}
	if eng.Stats.Translated != 0 {
		t.Fatalf("negative translation counted as Translated")
	}
	// Odd and out-of-region PCs are negative too.
	if eng.lookup(testCodeBase+1).sops != nil {
		t.Fatalf("odd PC translated")
	}
	if eng.lookup(0xF0000000).sops != nil {
		t.Fatalf("out-of-region PC translated")
	}
}

// TestBlockSMCInvalidation overwrites an instruction inside a cached (and
// currently executing) block and checks the engine falls back and
// retranslates with results identical to the interpreter: the store lands
// mid-block, execution of the stale tail must stop after the current
// instruction.
func TestBlockSMCInvalidation(t *testing.T) {
	// MOVE.W #$7242,(code+8): rewrites the MOVEQ #0,D1 two instructions
	// ahead — inside the same superblock — into MOVEQ #$42,D1.
	words := []uint16{
		0x31FC, 0x7242, 0x1008, // MOVE.W #$7242,($1008).W
		0x4E71, // NOP
		0x7200, // MOVEQ #0,D1  <- overwritten to MOVEQ #$42,D1
		0x4E75, // RTS
	}

	// One-shot quantum: the whole block runs in a single execSpec call, so
	// the store must trip the mid-block stop and force retranslation of
	// the tail — the interpreter sees the new opcode because it fetches
	// live.
	cpus, buses, eng := diffPair(words, 7)
	milestoneCompare(t, cpus, buses, eng, 2, 10000)
	if eng.Stats.Invalidations == 0 {
		t.Fatalf("self-modifying store did not invalidate the block")
	}
	if got := cpus[1].D[1]; got != 0x42 {
		t.Fatalf("spec engine executed stale code: D1 = %#x, want 0x42", got)
	}

	// And per-instruction lockstep over a fresh pair for good measure.
	cpus, buses, eng = diffPair(words, 7)
	lockstepCompare(t, cpus, buses, eng, 6)
	if eng.Stats.Invalidations == 0 {
		t.Fatalf("lockstep run did not invalidate the block")
	}
}

// TestBlockStraddlingWriteInvalidation caches two adjacent blocks and
// issues one long write straddling their boundary: both must drop.
func TestBlockStraddlingWriteInvalidation(t *testing.T) {
	c, b := newTestCPU(
		0x4E71, // NOP      block 1: [0x1000, 0x1004)
		0x4E75, // RTS
		0x4E71, // NOP      block 2: [0x1004, 0x1008)
		0x4E75, // RTS
	)
	eng := newTestEngine(c, b)
	b1 := eng.lookup(testCodeBase)
	b2 := eng.lookup(testCodeBase + 4)
	if b1.sops == nil || b2.sops == nil {
		t.Fatalf("setup blocks did not translate")
	}
	// A long write covering [0x1002, 0x1006) touches the tail of block 1
	// and the head of block 2.
	eng.NoteWrite(testCodeBase+2, Long)
	if eng.Stats.Invalidations != 2 {
		t.Fatalf("straddling write invalidated %d blocks, want 2", eng.Stats.Invalidations)
	}
	if eng.lookup(testCodeBase) == b1 || eng.lookup(testCodeBase+4) == b2 {
		t.Fatalf("invalidated blocks still served from cache")
	}
}

// TestBlockWriteElsewhereKeepsCache checks the page-mark fast path: data
// writes nowhere near cached code must not invalidate anything.
func TestBlockWriteElsewhereKeepsCache(t *testing.T) {
	c, b := newTestCPU(0x4E71, 0x4E75)
	eng := newTestEngine(c, b)
	blk := eng.lookup(testCodeBase)
	eng.NoteWrite(0x8000, Long) // far from code
	eng.NoteWrite(0x1200, Word) // same 512-byte page neighbourhood? no: 0x1200>>9=9, code page 8
	eng.NoteWrite(0x11FE, Word) // same page as code, outside the block
	if eng.Stats.Invalidations != 0 {
		t.Fatalf("unrelated writes invalidated %d blocks", eng.Stats.Invalidations)
	}
	if eng.lookup(testCodeBase) != blk {
		t.Fatalf("unrelated write evicted the block")
	}
}

// TestBlockGenerationBump checks that BumpGeneration lazily flushes every
// cached block and execution retranslates against the new memory.
func TestBlockGenerationBump(t *testing.T) {
	c, b := newTestCPU(0x7001, 0x4E75) // MOVEQ #1,D0; RTS
	eng := newTestEngine(c, b)
	blk := eng.lookup(testCodeBase)
	if blk.sops == nil {
		t.Fatalf("block did not translate")
	}
	// Rewrite the code underneath the cache the way a ROM reload would —
	// no NoteWrite, just a generation bump.
	asm(b, testCodeBase, 0x7005, 0x4E75) // MOVEQ #5,D0; RTS
	eng.BumpGeneration()
	nb := eng.lookup(testCodeBase)
	if nb == blk {
		t.Fatalf("generation bump did not flush the cached block")
	}
	eng.RunUntil(c.Cycles + 1)
	if c.D[0] != 5 {
		t.Fatalf("executed stale generation: D0 = %d, want 5", c.D[0])
	}
}

// TestBlockQuantumInvariance checks that, with chaining off, the final
// state and access stream are independent of where the cycle limits slice
// the blocks. TestSpecQuantumInvariance runs the same program with chains.
func TestBlockQuantumInvariance(t *testing.T) {
	checkQuantumInvariance(t, false)
}

// checkQuantumInvariance runs the same block-dense program under many
// different cycle quanta and compares every run with the quantum-1 run.
func checkQuantumInvariance(t *testing.T, chaining bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	words := blockSafeStream(rng, 64)

	run := func(quantum uint64) (*CPU, *testBus) {
		c, b := newTestCPU(words...)
		eng := newTestEngine(c, b)
		eng.setChaining(chaining)
		b.record = true
		// Cap each limit at the shared horizon so every run, whatever its
		// quantum, stops at the first instruction crossing 21000 cycles.
		for c.Cycles < 21000 && !c.halted {
			limit := c.Cycles + quantum
			if limit > 21000 {
				limit = 21000
			}
			eng.RunUntil(limit)
		}
		return c, b
	}

	refC, refB := run(1)
	for _, q := range []uint64{3, 17, 64, 331, 5000} {
		gotC, gotB := run(q)
		if refC.String() != gotC.String() || refC.Cycles != gotC.Cycles ||
			refC.Instructions != gotC.Instructions {
			t.Fatalf("quantum %d diverged:\nq=1: %v cycles=%d\nq=%d: %v cycles=%d",
				q, refC, refC.Cycles, q, gotC, gotC.Cycles)
		}
		if len(refB.accesses) != len(gotB.accesses) {
			t.Fatalf("quantum %d: %d accesses, want %d", q, len(gotB.accesses), len(refB.accesses))
		}
		for i := range refB.accesses {
			if refB.accesses[i] != gotB.accesses[i] {
				t.Fatalf("quantum %d: access %d = %+v, want %+v",
					q, i, gotB.accesses[i], refB.accesses[i])
			}
		}
	}
}

// TestBlockWakeBreak checks the per-instruction wake-timer break: with the
// wake register armed, RunUntil must retire exactly one instruction per
// call, because the machine loop must sync hardware after every step while
// a wake is pending.
func TestBlockWakeBreak(t *testing.T) {
	c, b := newTestCPU(0x4E71, 0x4E71, 0x4E71, 0x4E71, 0x4E71, 0x4E75)
	var wake uint32
	eng := NewBlockEngine(c, BlockBinding{
		Regions: []BlockRegion{{Base: 0, Mem: b.mem[:], Watched: true}},
		WakeAt:  &wake,
	})

	// Unarmed: one call runs through the whole block (and beyond).
	eng.RunUntil(c.Cycles + 1000)
	if c.Instructions < 6 {
		t.Fatalf("unarmed wake: only %d instructions retired", c.Instructions)
	}

	// Armed: exactly one instruction per call.
	c2, b2 := newTestCPU(0x4E71, 0x4E71, 0x4E71, 0x4E71, 0x4E71, 0x4E75)
	var wake2 uint32 = 100
	eng2 := NewBlockEngine(c2, BlockBinding{
		Regions: []BlockRegion{{Base: 0, Mem: b2.mem[:], Watched: true}},
		WakeAt:  &wake2,
	})
	before := c2.Instructions
	eng2.RunUntil(c2.Cycles + 1000)
	if got := c2.Instructions - before; got != 1 {
		t.Fatalf("armed wake: %d instructions per RunUntil, want 1", got)
	}
}

// TestBlockStatsAvgLen sanity-checks the derived metric the observability
// layer exports.
func TestBlockStatsAvgLen(t *testing.T) {
	var s BlockStats
	if s.AvgBlockLen() != 0 {
		t.Fatalf("empty stats AvgBlockLen = %v, want 0", s.AvgBlockLen())
	}
	s.Translated = 4
	s.TranslatedOps = 10
	if got := s.AvgBlockLen(); got != 2.5 {
		t.Fatalf("AvgBlockLen = %v, want 2.5", got)
	}
}

// TestParseDispatch covers the CLI mapping: the fast-path spellings, the
// reference, and names that are not replay engines (retired engine names
// among them), which must be rejected.
func TestParseDispatch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DispatchKind
		err  bool
	}{
		{"", DispatchSpec, false},
		{"auto", DispatchSpec, false},
		{"spec", DispatchSpec, false},
		{"legacy", DispatchLegacy, false},
		{"table", DispatchSpec, true},
		{"block", DispatchSpec, true},
		{"jit", DispatchSpec, true},
	} {
		got, err := ParseDispatch(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}
