package stack

import (
	"math/rand"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
)

// mixedTrace is a deterministic RAM/flash trace with enough reuse to
// exercise every recency depth.
func mixedTrace(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]uint32, n)
	for i := range trace {
		if rng.Intn(3) == 0 {
			trace[i] = 0x10000000 + uint32(rng.Intn(1<<18)) // flash-side
		} else {
			trace[i] = uint32(rng.Intn(1 << 18)) // RAM-side
		}
	}
	return trace
}

// assertIdentical compares two result sets field for field.
func assertIdentical(t *testing.T, name string, got, want []cache.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: %v diverged:\n got %+v\nwant %+v", name, want[i].Config, got[i], want[i])
		}
	}
}

// TestSweepMatchesDirectOnRandomTrace is the core differential gate: the
// single-pass engine must reproduce cache.Sweep bit for bit over the full
// paper sweep on a random mixed-region trace.
func TestSweepMatchesDirectOnRandomTrace(t *testing.T) {
	cfgs := cache.PaperSweep()
	for _, seed := range []int64{1, 2005, 56} {
		trace := mixedTrace(80_000, seed)
		want, err := cache.Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "random trace", got, want)
	}
}

// TestSweepMatchesDirectOnDesktopTrace repeats the differential over the
// structured synthetic desktop workload (loops, calls, hot/cold heap),
// whose reuse distances exercise the refinement lists far more than
// uniform noise does.
func TestSweepMatchesDirectOnDesktopTrace(t *testing.T) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 60_000
	trace := dtrace.Generate(cfg)
	cfgs := cache.PaperSweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "desktop trace", got, want)
}

// TestSweepChunkedMatchesWhole verifies a refinement can be advanced in
// arbitrary chunk schedules without changing its counts (the property the
// parallel sweep engine relies on).
func TestSweepChunkedMatchesWhole(t *testing.T) {
	trace := mixedTrace(30_000, 7)
	cfgs := cache.PaperSweep()
	want, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1024} {
		e, err := New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		units := e.Units()
		for lo := 0; lo < len(trace); lo += chunk {
			hi := lo + chunk
			if hi > len(trace) {
				hi = len(trace)
			}
			for _, u := range units {
				u.AccessAllKinded(trace[lo:hi], nil)
			}
		}
		assertIdentical(t, "chunked", e.Results(), want)
	}
}

// TestRefinementTreeGeometry checks the PaperSweep grouping invariants
// against the built tree: every LRU configuration lands in exactly one
// refinement whose geometry (line size, set count, index shift) matches
// the configuration's own precomputations, each refinement's depth is
// the deepest associativity it serves, and the 20 refinements form two
// units, one walk per line size.
func TestRefinementTreeGeometry(t *testing.T) {
	cfgs := cache.PaperSweep()
	e, err := New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if e.FallbackConfigs() != 0 {
		t.Fatalf("paper sweep produced %d fallback configs, want 0", e.FallbackConfigs())
	}
	refs := e.Refinements()
	// 10 distinct set counts per line size (sets = size/(line*ways) over
	// 7 sizes x 4 ways collapses 28 configs to 10 geometries).
	if len(refs) != 20 {
		t.Fatalf("%d refinements for the paper sweep, want 20", len(refs))
	}
	// One walk per line size advances them.
	if n := len(e.Units()); n != 2 {
		t.Fatalf("the paper sweep plans into %d units, want 2 (one per line size)", n)
	}
	served := 0
	for _, r := range refs {
		if r.Depth() < 1 || r.Depth() > 8 {
			t.Errorf("refinement %dB/%d-sets has depth %d", r.LineBytes(), r.Sets(), r.Depth())
		}
		maxWays := 0
		for _, cfg := range r.Configs() {
			served++
			if cfg.LineBytes != r.LineBytes() {
				t.Errorf("%v grouped under line size %d", cfg, r.LineBytes())
			}
			if cfg.Sets() != r.Sets() {
				t.Errorf("%v (sets %d) grouped under %d sets", cfg, cfg.Sets(), r.Sets())
			}
			if cfg.IndexShift() != r.lineShift {
				t.Errorf("%v: IndexShift %d != refinement shift %d", cfg, cfg.IndexShift(), r.lineShift)
			}
			if uint32(cfg.Sets()-1) != r.setMask {
				t.Errorf("%v: set mask mismatch", cfg)
			}
			if cfg.Ways > r.Depth() {
				t.Errorf("%v: ways %d exceeds refinement depth %d", cfg, cfg.Ways, r.Depth())
			}
			if cfg.Ways > maxWays {
				maxWays = cfg.Ways
			}
		}
		if maxWays != r.Depth() {
			t.Errorf("refinement %dB/%d-sets: depth %d, deepest served ways %d",
				r.LineBytes(), r.Sets(), r.Depth(), maxWays)
		}
	}
	if served != len(cfgs) {
		t.Errorf("refinements serve %d configs, want %d", served, len(cfgs))
	}
}

// TestNonLRUFallsBackToDirect mixes policies: the engine must route
// FIFO and PLRU configurations to single-pass families, Random to
// direct simulation, and still return results identical to cache.Sweep
// in the original order.
func TestNonLRUFallsBackToDirect(t *testing.T) {
	trace := mixedTrace(40_000, 9)
	cfgs := []cache.Config{
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.FIFO},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: cache.Random},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: cache.PLRU},
	}
	e, err := New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if e.FallbackConfigs() != 1 {
		t.Fatalf("%d fallback configs, want 1 (only Random lacks a single-pass engine)", e.FallbackConfigs())
	}
	if e.FamilyConfigs() != 2 {
		t.Fatalf("%d family configs, want 2 (FIFO + PLRU)", e.FamilyConfigs())
	}
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "mixed policies", got, want)
}

// TestInvalidConfigRejected mirrors the direct engine's validation.
func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New([]cache.Config{{SizeBytes: 3000, LineBytes: 16, Ways: 1}}); err == nil {
		t.Error("invalid LRU config accepted")
	}
	if _, err := New([]cache.Config{{SizeBytes: 3000, LineBytes: 16, Ways: 1, Policy: cache.FIFO}}); err == nil {
		t.Error("invalid fallback config accepted")
	}
}

// TestEmptyInputs covers the degenerate shapes.
func TestEmptyInputs(t *testing.T) {
	res, err := Sweep(nil, mixedTrace(10, 1))
	if err != nil || len(res) != 0 {
		t.Errorf("no-config sweep: res=%v err=%v", res, err)
	}
	res, err = Sweep(cache.PaperSweep()[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Accesses != 0 || r.Misses != 0 {
			t.Errorf("%v: nonzero stats on empty trace: %+v", r.Config, r)
		}
	}
}

// TestDepthHistogramConservation: across any refinement, the histogram
// buckets must sum to the access count, and the per-config miss counts
// must be monotonically non-increasing in associativity (more ways never
// miss more, for LRU on the same geometry).
func TestDepthHistogramConservation(t *testing.T) {
	trace := mixedTrace(50_000, 3)
	cfgs := cache.PaperSweep()
	res, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	byGeom := map[[2]int]map[int]uint64{}
	for _, r := range res {
		if r.Accesses != uint64(len(trace)) {
			t.Errorf("%v: %d accesses, want %d", r.Config, r.Accesses, len(trace))
		}
		key := [2]int{r.Config.LineBytes, r.Config.Sets()}
		if byGeom[key] == nil {
			byGeom[key] = map[int]uint64{}
		}
		byGeom[key][r.Config.Ways] = r.Misses
	}
	for key, byWays := range byGeom {
		prevWays, prevMisses := 0, ^uint64(0)
		for ways := 1; ways <= 8; ways *= 2 {
			m, ok := byWays[ways]
			if !ok {
				continue
			}
			if m > prevMisses {
				t.Errorf("geometry %v: %d-way misses %d > %d-way misses %d",
					key, ways, m, prevWays, prevMisses)
			}
			prevWays, prevMisses = ways, m
		}
	}
}
