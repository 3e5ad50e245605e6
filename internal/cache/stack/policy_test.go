package stack

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"palmsim/internal/cache"
)

// policySweep returns the 56 paper configurations relabeled with a
// policy and write policy.
func policySweep(pol cache.Policy, wp cache.WritePolicy) []cache.Config {
	cfgs := cache.PaperSweep()
	for i := range cfgs {
		cfgs[i].Policy = pol
		cfgs[i].Write = wp
	}
	return cfgs
}

// directKindedSweep is the oracle for the kinded engine paths: one
// direct cache.Cache per configuration, each fed the (ref, kind)
// stream.
func directKindedSweep(t *testing.T, cfgs []cache.Config, trace []uint32, kinds []uint8) []cache.Result {
	t.Helper()
	out := make([]cache.Result, len(cfgs))
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.AccessAllKinded(trace, kinds)
		out[i] = c.Result()
	}
	return out
}

func kindsFor(n int, seed int64) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]uint8, n)
	for i := range kinds {
		kinds[i] = uint8(rng.Intn(3))
	}
	return kinds
}

// palmTrace is a kinded trace shaped like the ROM's drawing loops: a
// flash fetch stream that advances slowly through short loop bodies,
// interleaved with RAM reads and writes that walk source and
// destination buffers two bytes at a time, and stack pushes and pops
// that repeat one line. mixedTrace's uniform addresses almost never
// repeat a line or return to the one before it; this trace mostly
// does, so it reaches the family filter's same-line and A-B-A
// shortcuts, writes included.
func palmTrace(n int, seed int64) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]uint32, 0, n+2)
	kinds := make([]uint8, 0, n+2)
	emit := func(addr uint32, kind uint8) {
		trace = append(trace, addr)
		kinds = append(kinds, kind)
	}
	for len(trace) < n {
		// One routine: a loop body somewhere in flash run over a
		// stripe of a source buffer, a destination buffer and the stack.
		pc := 0x10000000 + uint32(rng.Intn(1<<17))&^1
		body := 2 + rng.Intn(7)
		src := uint32(rng.Intn(1<<17)) &^ 1
		dst := 0x30000 + uint32(rng.Intn(1<<15))&^1
		sp := 0x3F000 + uint32(rng.Intn(1<<10))&^3
		for iter := 1 + rng.Intn(60); iter > 0 && len(trace) < n; iter-- {
			for k := 0; k < body; k++ {
				emit(pc+uint32(2*k), cache.KindFetch)
				switch rng.Intn(6) {
				case 0:
					emit(src, cache.KindRead)
					src += 2
				case 1:
					emit(dst, cache.KindWrite)
					dst += 2
				case 2:
					emit(sp, cache.KindWrite)
					emit(sp, cache.KindRead)
				}
			}
		}
	}
	return trace[:n], kinds[:n]
}

// kindedInput is one trace of the kinded differential tests.
type kindedInput struct {
	name  string
	trace []uint32
	kinds []uint8
}

// kindedInputs returns mixedTrace, which reaches misses and writebacks
// at every geometry, and palmTrace, which reaches the family filter's
// shortcuts, each n references long.
func kindedInputs(n int, seed int64) []kindedInput {
	palm, palmKinds := palmTrace(n, seed+100)
	return []kindedInput{
		{"uniform", mixedTrace(n, seed), kindsFor(n, seed+1)},
		{"palm", palm, palmKinds},
	}
}

// TestFamilySweepMatchesDirect: the single-pass FIFO and PLRU family
// engines must be bit-identical to per-config direct simulation over
// the full 56-config paper grid on several random traces.
func TestFamilySweepMatchesDirect(t *testing.T) {
	for _, pol := range []cache.Policy{cache.FIFO, cache.PLRU} {
		for _, seed := range []int64{1, 2005, 56} {
			trace := mixedTrace(80_000, seed)
			cfgs := policySweep(pol, cache.WriteIgnore)
			want, err := cache.Sweep(cfgs, trace)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Sweep(cfgs, trace)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, pol.String(), got, want)
		}
	}
}

// TestKindedSweepMatchesDirect covers every (policy, write policy)
// pair: refinement wmax write-back accounting for LRU, family dirty
// tracking for FIFO/PLRU, and the direct fallback for Random — all
// bit-identical to the kinded direct simulator, on both kinded inputs,
// over the paper grid, wider multi-set geometries and fully associative
// ones.
func TestKindedSweepMatchesDirect(t *testing.T) {
	for _, in := range kindedInputs(60_000, 7) {
		if in.name == "palm" {
			assertReachesShortcuts(t, in)
			assertWalksStopEarly(t, in)
		}
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.PLRU} {
			for _, wp := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
				for _, grid := range []struct {
					name string
					cfgs []cache.Config
				}{
					{"paper", policySweep(pol, wp)},
					{"wide", relabel(wideGeometries, pol, wp)},
					{"fully associative", relabel(fullyAssociative, pol, wp)},
				} {
					want := directKindedSweep(t, grid.cfgs, in.trace, in.kinds)
					got, err := SweepKinded(grid.cfgs, in.trace, in.kinds)
					if err != nil {
						t.Fatal(err)
					}
					name := in.name + " " + grid.name + " " + pol.String() + "/" + wp.String()
					assertIdentical(t, name, got, want)
					if wp == cache.WriteBack {
						sawWB := false
						for _, r := range got {
							if r.Writebacks > 0 {
								sawWB = true
							}
						}
						if !sawWB {
							t.Errorf("%s: no writebacks anywhere in the sweep", name)
						}
					}
				}
			}
		}
	}
}

// wideGeometries have more ways than the paper grid's 8, where a PLRU
// tree outgrows its uint8, but several sets each, so the family
// filter's A-B-A shortcut stays live.
var wideGeometries = []cache.Config{
	{SizeBytes: 4 << 10, LineBytes: 16, Ways: 16},
	{SizeBytes: 16 << 10, LineBytes: 32, Ways: 16},
	{SizeBytes: 8 << 10, LineBytes: 16, Ways: 32},
	{SizeBytes: 64 << 10, LineBytes: 16, Ways: 128},
}

// fullyAssociative geometries have one set: their family's minimum set
// mask is 0, which turns the A-B-A shortcut off.
var fullyAssociative = []cache.Config{
	{SizeBytes: 1 << 10, LineBytes: 16, Ways: 64},
	{SizeBytes: 4 << 10, LineBytes: 32, Ways: 128},
}

// relabel copies geometries with a policy and write policy.
func relabel(geoms []cache.Config, pol cache.Policy, wp cache.WritePolicy) []cache.Config {
	cfgs := append([]cache.Config(nil), geoms...)
	for i := range cfgs {
		cfgs[i].Policy = pol
		cfgs[i].Write = wp
	}
	return cfgs
}

// assertReachesShortcuts requires the write-back families' filter to
// drop at least half of the input's references: the records and write
// markers it passes to the variants, in one whole-trace chunk, must
// stay under half the trace.
func assertReachesShortcuts(t *testing.T, in kindedInput) {
	t.Helper()
	for _, pol := range []cache.Policy{cache.FIFO, cache.PLRU} {
		e, err := New(policySweep(pol, cache.WriteBack))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range e.Families() {
			f.AccessAllKinded(in.trace, in.kinds)
			if share := float64(len(f.buf)) / float64(len(in.trace)); share > 0.5 {
				t.Errorf("%s %v %dB family: %.1f%% of references reach the variants, want at most 50%%",
					in.name, pol, f.LineBytes(), 100*share)
			}
		}
	}
}

// assertWalksStopEarly requires the LRU walks to stop at their
// smallest-set refinement, where the reference is already MRU, for at
// least half of the input's references.
func assertWalksStopEarly(t *testing.T, in kindedInput) {
	t.Helper()
	e, err := New(policySweep(cache.LRU, cache.WriteBack))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range e.walks {
		w.AccessAllKinded(in.trace, in.kinds)
		first := w.exits[0][0] + w.exits[1][0]
		if share := float64(first) / float64(len(in.trace)); share < 0.5 {
			t.Errorf("%s %dB walk: %.1f%% of references stop at the first refinement, want at least 50%%",
				in.name, w.levels[0].LineBytes(), 100*share)
		}
	}
}

// mixedWritePlan is one line size's LRU grid, depths 1 to 8, with write
// policies mixed within refinements and between them: at 1, 8, 64, ...
// sets write-back joins write-through, at 4, 32, 256, ... sets
// write-back joins write-ignore, and the refinements in between track
// no dirty bits at all, so a write's walk crosses refinements without
// wmax between ones with it.
func mixedWritePlan(line int) []cache.Config {
	var cfgs []cache.Config
	for _, c := range cache.PaperSweep() {
		if c.LineBytes != line {
			continue
		}
		switch bits.TrailingZeros(uint(c.Sets())) % 3 {
		case 0:
			c.Write = cache.WriteBack
			if c.Ways == 1 {
				c.Write = cache.WriteThrough
			}
		case 1:
			c.Write = cache.WriteThrough
			if c.Ways >= 4 {
				c.Write = cache.WriteIgnore
			}
		case 2:
			c.Write = cache.WriteIgnore
			if c.Ways >= 4 {
				c.Write = cache.WriteBack
			}
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestWalkMixedWritePolicies runs the mixed-policy plan through one walk
// in chunks of 1, 7 and 1024 references, on both kinded inputs, and
// requires every counter of the direct simulator.
func TestWalkMixedWritePolicies(t *testing.T) {
	cfgs := mixedWritePlan(16)
	for _, in := range kindedInputs(40_000, 31) {
		want := directKindedSweep(t, cfgs, in.trace, in.kinds)
		for _, chunk := range []int{1, 7, 1024} {
			e, err := New(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.walks) != 1 {
				t.Fatalf("%d walks for one line size, want 1", len(e.walks))
			}
			tracked, untracked := 0, 0
			for _, r := range e.Refinements() {
				if r.wmax != nil {
					tracked++
				} else {
					untracked++
				}
			}
			if tracked == 0 || untracked == 0 {
				t.Fatalf("plan has %d refinements with wmax and %d without, want both", tracked, untracked)
			}
			for lo := 0; lo < len(in.trace); lo += chunk {
				hi := min(len(in.trace), lo+chunk)
				for _, u := range e.Units() {
					u.AccessAllKinded(in.trace[lo:hi], in.kinds[lo:hi])
				}
			}
			assertIdentical(t, fmt.Sprintf("%s mixed write policies, chunks of %d", in.name, chunk), e.Results(), want)
		}
	}
}

// TestKindedMixedWritePolicies shares one refinement between write-back
// and write-through configurations of the same geometry: the miss
// counters must agree and only the write-back config may report
// writebacks.
func TestKindedMixedWritePolicies(t *testing.T) {
	const n = 50_000
	trace := mixedTrace(n, 13)
	kinds := kindsFor(n, 14)
	cfgs := []cache.Config{
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 4, Policy: cache.LRU, Write: cache.WriteBack},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 4, Policy: cache.LRU, Write: cache.WriteThrough},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: cache.WriteBack},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 8, Policy: cache.FIFO, Write: cache.WriteBack},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 8, Policy: cache.FIFO, Write: cache.WriteIgnore},
	}
	e, err := New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// Configs 0 and 1 share a (16B, 64-set) refinement despite their
	// different write policies; config 2 has its own set count.
	if len(e.Refinements()) != 2 {
		t.Fatalf("expected the LRU configs to collapse to 2 refinements, got %d", len(e.Refinements()))
	}
	got, err := SweepKinded(cfgs, trace, kinds)
	if err != nil {
		t.Fatal(err)
	}
	want := directKindedSweep(t, cfgs, trace, kinds)
	assertIdentical(t, "mixed write policies", got, want)
	if got[1].Writebacks != 0 || got[4].Writebacks != 0 {
		t.Error("non-write-back configs report writebacks")
	}
	if got[0].Writebacks == 0 || got[3].Writebacks == 0 {
		t.Error("write-back configs report no writebacks")
	}
}

// TestFamilyChunkedMatchesWhole feeds families ragged chunks — the
// sweep fan-out's delivery pattern — and requires whole-pass results,
// with and without kinds.
func TestFamilyChunkedMatchesWhole(t *testing.T) {
	const n = 40_000
	trace := mixedTrace(n, 3)
	kinds := kindsFor(n, 4)
	for _, pol := range []cache.Policy{cache.FIFO, cache.PLRU} {
		cfgs := policySweep(pol, cache.WriteBack)
		whole, err := SweepKinded(cfgs, trace, kinds)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for pos := 0; pos < n; {
			c := 1 + rng.Intn(5000)
			if pos+c > n {
				c = n - pos
			}
			for _, f := range e.Families() {
				f.AccessAllKinded(trace[pos:pos+c], kinds[pos:pos+c])
			}
			pos += c
		}
		assertIdentical(t, pol.String()+" chunked", e.Results(), whole)
	}
}

// TestFamilyAndRefinementStateRoundTrip feeds every unit of kinded
// write-back LRU, FIFO and PLRU engines each kinded input in random
// pieces, empty and one-reference pieces included, and requires the
// results of one whole pass. Covers the refinement's wmax and writeback
// histogram, which no address-only chunked test reaches, and the
// family's filter state (last, last2 and the current slot register),
// which crosses chunk boundaries.
func TestFamilyAndRefinementStateRoundTrip(t *testing.T) {
	const n = 30_000
	rng := rand.New(rand.NewSource(23))
	for _, in := range kindedInputs(n, 21) {
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
			cfgs := policySweep(pol, cache.WriteBack)
			whole, err := SweepKinded(cfgs, in.trace, in.kinds)
			if err != nil {
				t.Fatal(err)
			}
			for _, max := range []int{1, 7, 5000} {
				e, err := New(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; {
					hi := min(n, lo+rng.Intn(max+1))
					for _, u := range e.Units() {
						u.AccessAllKinded(in.trace[lo:hi], in.kinds[lo:hi])
					}
					lo = hi
				}
				assertIdentical(t, fmt.Sprintf("%s %s pieces of up to %d", in.name, pol, max), e.Results(), whole)
			}
		}
	}
}

// TestOPTRejected: the stack engine cannot serve OPT; the error must
// name the route.
func TestOPTRejected(t *testing.T) {
	_, err := New([]cache.Config{{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.OPT}})
	if err == nil {
		t.Fatal("stack.New accepted an OPT config")
	}
}
