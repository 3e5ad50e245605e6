package m68k

import "testing"

// Spec-engine unit tests: specialization coverage, chain patch/follow
// mechanics, and — the subtlest new failure mode — every path that must
// sever a chained successor link: watched invalidation (SMC), generation
// bumps, and collision eviction of a watched block (which silently drops
// its page marks, so a stale link would outlive the write detection).
// The differential tests (diff_test.go) prove bit-identity; these pin the
// severing behavior down so a regression fails with a named cause.

// specLoopProgram: a self-chaining loop. The head block is [MOVEQ,
// MOVEQ, DBF]; the DBF's backward target heads a second block [MOVEQ, DBF]
// that chains to itself until the counter expires, then falls through to
// RTS. The loop body is MOVEQ #1,D1 (2 bytes, 4 cycles, like a NOP) because
// every op in it must have a specialized form.
func specLoopProgram() []uint16 {
	return []uint16{
		0x7009,         // MOVEQ #9,D0
		0x7201,         // MOVEQ #1,D1    <- loop head (testCodeBase+2)
		0x51C8, 0xFFFC, // DBF D0,-4 (back to the MOVEQ #1,D1)
		0x4E75, // RTS
	}
}

func TestSpecChainPatchAndFollow(t *testing.T) {
	c, b := newTestCPU(specLoopProgram()...)
	eng := newTestEngine(c, b)
	// The loop retires in exactly 148 cycles (MOVEQ 4, 10 loop-body
	// MOVEQs, 9 taken + 1 expired DBF); cap just past it so execution
	// stops at the RTS and never chains into the zeroed memory beyond the
	// program (which would translate as generic ops and muddy the adapter
	// assertion below).
	eng.RunUntil(c.Cycles + 150)
	if uint16(c.D[0]) != 0xFFFF {
		t.Fatalf("loop did not run to completion: D0 = %#x", c.D[0])
	}
	st := &eng.Stats
	if st.ChainPatches == 0 {
		t.Fatalf("no successor links patched: %+v", st)
	}
	// The self-loop body re-enters itself ~9 times; all but the patching
	// transition must ride the link without a lookup.
	if st.ChainFollows < 5 {
		t.Fatalf("ChainFollows = %d, want >= 5 (stats %+v)", st.ChainFollows, st)
	}
	if st.SpecExec == 0 || st.AdapterExec != 0 {
		t.Fatalf("loop of whitelisted ops ran through the adapter: SpecExec=%d AdapterExec=%d",
			st.SpecExec, st.AdapterExec)
	}
	if st.SpecOps != st.TranslatedOps {
		t.Fatalf("not every translated op specialized: SpecOps=%d TranslatedOps=%d",
			st.SpecOps, st.TranslatedOps)
	}
}

// chainAB builds the two-block program used by the severing tests —
// block A ([BRA], at testCodeBase) chains into block B ([MOVEQ #1,D1],
// at testCodeBase+4) — runs it once so the link is patched, and returns
// the engine.
func chainAB(t *testing.T) (*CPU, *testBus, *BlockEngine) {
	t.Helper()
	c, b := newTestCPU(
		0x6002, // BRA.S +2       block A
		0x4E71, // (skipped)
		0x7201, // MOVEQ #1,D1    block B head (testCodeBase+4)
		0x4E75, // RTS
	)
	eng := newTestEngine(c, b)
	// BRA taken is 10 cycles: block A ends under the limit, so execSpec
	// chains into B and stops right after the MOVEQ trips it.
	eng.RunUntil(c.Cycles + 11)
	if c.D[1] != 1 {
		t.Fatalf("setup run: D1 = %#x, want 1", c.D[1])
	}
	if eng.Stats.ChainPatches == 0 {
		t.Fatalf("setup run patched no successor link: %+v", eng.Stats)
	}
	a := eng.lookup(testCodeBase)
	if a.succ == nil || a.succ.pc != testCodeBase+4 {
		t.Fatalf("block A successor not patched to B")
	}
	return c, b, eng
}

// rerunAB re-executes A (and whatever follows it) from the top and
// returns D1, which identifies which version of B's MOVEQ executed.
func rerunAB(c *CPU, eng *BlockEngine) uint32 {
	c.PC = testCodeBase
	c.D[1] = 0
	eng.RunUntil(c.Cycles + 11)
	return c.D[1]
}

// TestSpecChainSeveredBySMC stores into the chained successor's range:
// the link must die with the invalidation and the retranslated block must
// execute the new code.
func TestSpecChainSeveredBySMC(t *testing.T) {
	c, b, eng := chainAB(t)
	follows := eng.Stats.ChainFollows
	// Rewrite B's MOVEQ through the watched-write path, as a store by the
	// running program would arrive.
	b.put16(testCodeBase+4, 0x7242) // MOVEQ #$42,D1
	eng.NoteWrite(testCodeBase+4, Word)
	if eng.Stats.Invalidations == 0 {
		t.Fatalf("write into cached block B did not invalidate it")
	}
	if got := rerunAB(c, eng); got != 0x42 {
		t.Fatalf("chained link survived SMC: D1 = %#x, want 0x42", got)
	}
	if eng.Stats.ChainFollows != follows {
		t.Fatalf("severed link was followed: ChainFollows went %d -> %d",
			follows, eng.Stats.ChainFollows)
	}
}

// TestSpecChainSeveredByGenerationBump covers the wholesale-invalidation
// path (ROM reload, flash poke): generation-stale successors must not be
// followed even though no watched write ever touched them.
func TestSpecChainSeveredByGenerationBump(t *testing.T) {
	c, b, eng := chainAB(t)
	follows := eng.Stats.ChainFollows
	asm(b, testCodeBase+4, 0x7242) // rewrite underneath the cache
	eng.BumpGeneration()
	if got := rerunAB(c, eng); got != 0x42 {
		t.Fatalf("chained link survived generation bump: D1 = %#x, want 0x42", got)
	}
	if eng.Stats.ChainFollows != follows {
		t.Fatalf("generation-stale link was followed")
	}
}

// TestSpecChainSeveredByEviction covers the subtle hole: a watched block
// evicted from the cache by a table collision loses its page marks, so a
// later write into its range invalidates nothing — a successor link still
// pointing at it would replay stale code forever. Eviction must sever
// links just like invalidation does.
func TestSpecChainSeveredByEviction(t *testing.T) {
	c, b, eng := chainAB(t)
	follows := eng.Stats.ChainFollows
	// A block whose pc collides with B's cache slot: the direct-mapped
	// table indexes by pc>>1 mod 8192, so +0x4000 collides.
	collide := uint32(testCodeBase + 4 + blockTableSize<<1)
	asm(b, collide, 0x4E71, 0x4E75) // NOP; RTS
	if eng.lookup(collide).sops == nil {
		t.Fatalf("colliding block did not translate")
	}
	// B is out of the cache now; this write invalidates nothing (B's page
	// marks went with it) — only the eviction-time epoch bump protects the
	// A->B link.
	b.put16(testCodeBase+4, 0x7242)
	eng.NoteWrite(testCodeBase+4, Word)
	if got := rerunAB(c, eng); got != 0x42 {
		t.Fatalf("chained link survived collision eviction: D1 = %#x, want 0x42", got)
	}
	if eng.Stats.ChainFollows != follows {
		t.Fatalf("evicted successor's link was followed")
	}
}

// TestSpecChainingDisabled checks the no-chain position the differential
// tests use: with chaining off the engine must still execute correctly and
// never patch or follow.
func TestSpecChainingDisabled(t *testing.T) {
	c, b := newTestCPU(specLoopProgram()...)
	eng := newTestEngine(c, b)
	eng.setChaining(false)
	eng.RunUntil(c.Cycles + 400)
	if uint16(c.D[0]) != 0xFFFF {
		t.Fatalf("loop did not complete with chaining off: D0 = %#x", c.D[0])
	}
	if eng.Stats.ChainPatches != 0 || eng.Stats.ChainFollows != 0 {
		t.Fatalf("chaining disabled but patches=%d follows=%d",
			eng.Stats.ChainPatches, eng.Stats.ChainFollows)
	}
}

// TestSpecQuantumInvariance runs the same block-dense program under many
// different cycle quanta with chaining on: final state and access stream
// must be independent of how cycle limits slice blocks and chains.
func TestSpecQuantumInvariance(t *testing.T) {
	checkQuantumInvariance(t, true)
}

// TestSpecChainTwoWayFork: a conditional terminator alternating between
// its two targets must chain both ways via the two successor slots —
// once each target has been patched, further alternation follows links
// without re-patching.
func TestSpecChainTwoWayFork(t *testing.T) {
	c, b := newTestCPU(
		0x4A00, // TST.B D0       block A
		0x6704, // BEQ.S +4 -> C
		0x7201, // MOVEQ #1,D1    block B (fall-through)
		0x4E75, // RTS
		0x7202, // MOVEQ #2,D1    block C (taken target)
		0x4E75, // RTS
	)
	eng := newTestEngine(c, b)
	// TST (4) + BEQ (8 untaken / 10 taken) stays under 15, so the fork
	// chains; the target's MOVEQ (4) then trips the limit before its RTS.
	run := func(d0 uint32) uint32 {
		c.PC = testCodeBase
		c.D[0] = d0
		c.D[1] = 0
		eng.RunUntil(c.Cycles + 15)
		return c.D[1]
	}
	if got := run(1); got != 1 {
		t.Fatalf("fall-through run: D1 = %d, want 1", got)
	}
	if got := run(0); got != 2 {
		t.Fatalf("taken run: D1 = %d, want 2", got)
	}
	patches, follows := eng.Stats.ChainPatches, eng.Stats.ChainFollows
	if got := run(1); got != 1 {
		t.Fatalf("second fall-through run: D1 = %d, want 1", got)
	}
	if got := run(0); got != 2 {
		t.Fatalf("second taken run: D1 = %d, want 2", got)
	}
	if eng.Stats.ChainPatches != patches {
		t.Fatalf("alternating fork re-patched: %d -> %d links", patches, eng.Stats.ChainPatches)
	}
	if eng.Stats.ChainFollows != follows+2 {
		t.Fatalf("alternating fork did not ride both slots: follows %d -> %d, want +2",
			follows, eng.Stats.ChainFollows)
	}
}
