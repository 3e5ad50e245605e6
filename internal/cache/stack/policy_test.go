package stack

import (
	"fmt"
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
// bit-identical to the kinded direct simulator.
func TestKindedSweepMatchesDirect(t *testing.T) {
	const n = 60_000
	trace := mixedTrace(n, 7)
	kinds := kindsFor(n, 8)
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.PLRU} {
		for _, wp := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
			cfgs := policySweep(pol, wp)
			want := directKindedSweep(t, cfgs, trace, kinds)
			got, err := SweepKinded(cfgs, trace, kinds)
			if err != nil {
				t.Fatal(err)
			}
			name := pol.String() + "/" + wp.String()
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
// write-back LRU, FIFO and PLRU engines the trace in random pieces,
// empty and one-reference pieces included, and requires the results of
// one whole pass. Covers the refinement's wmax and writeback histogram,
// which no address-only chunked test reaches, and the family layout.
func TestFamilyAndRefinementStateRoundTrip(t *testing.T) {
	const n = 30_000
	trace := mixedTrace(n, 21)
	kinds := kindsFor(n, 22)
	rng := rand.New(rand.NewSource(23))
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		cfgs := policySweep(pol, cache.WriteBack)
		whole, err := SweepKinded(cfgs, trace, kinds)
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
					u.AccessAllKinded(trace[lo:hi], kinds[lo:hi])
				}
				lo = hi
			}
			assertIdentical(t, fmt.Sprintf("%s pieces of up to %d", pol, max), e.Results(), whole)
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
