package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"palmsim/internal/bus"
)

func cfg(size, line, ways int) Config {
	return Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: LRU}
}

func TestConfigValidation(t *testing.T) {
	good := []Config{
		cfg(1024, 16, 1), cfg(65536, 32, 8), cfg(64, 16, 4),
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v rejected: %v", c, err)
		}
	}
	bad := []Config{
		cfg(1000, 16, 1), // size not power of two
		cfg(1024, 24, 1), // line not power of two
		cfg(1024, 16, 3), // ways not power of two
		cfg(16, 16, 4),   // fewer than one set
		cfg(0, 16, 1),    // zero size
		cfg(1024, 0, 1),  // zero line
		cfg(1024, 16, 0), // zero ways
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v accepted", c)
		}
	}
	// Past MaxWays a byte no longer holds a way's rank or depth bound.
	if err := cfg(65536, 16, MaxWays).Validate(); err != nil {
		t.Errorf("%d ways rejected: %v", MaxWays, err)
	}
	for _, c := range []Config{cfg(65536, 16, 256), cfg(65536, 16, 512)} {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "128-way limit") {
			t.Errorf("%v: err = %v, want the 128-way limit named", c, err)
		}
	}
}

func TestPaperSweepHas56Configs(t *testing.T) {
	sweep := PaperSweep()
	if len(sweep) != 56 {
		t.Fatalf("sweep has %d configs, want 56 (§4.2)", len(sweep))
	}
	seen := map[string]bool{}
	for _, c := range sweep {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid config in sweep: %v", err)
		}
		if seen[c.String()] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
}

// TestPaperSweepGroupingInvariants pins the structural properties the
// single-pass stack engine relies on when it groups the sweep into
// refinements: every configuration is LRU, partitions cleanly by line
// size, and its Sets/Ways/shift precomputations are mutually consistent,
// so 56 configurations collapse to 10 set-count geometries per line size.
func TestPaperSweepGroupingInvariants(t *testing.T) {
	sweep := PaperSweep()
	byLine := map[int]int{}
	geoms := map[[2]int]bool{}
	for _, c := range sweep {
		if c.Policy != LRU {
			t.Errorf("%v: paper sweep must be all-LRU for stack grouping", c)
		}
		byLine[c.LineBytes]++
		geoms[[2]int{c.LineBytes, c.Sets()}] = true
		if c.Sets()*c.Ways*c.LineBytes != c.SizeBytes {
			t.Errorf("%v: Sets()*Ways*LineBytes = %d, want %d",
				c, c.Sets()*c.Ways*c.LineBytes, c.SizeBytes)
		}
		if got := 1 << c.IndexShift(); got != c.LineBytes {
			t.Errorf("%v: IndexShift %d does not recover line size", c, c.IndexShift())
		}
		if got := 1 << (c.TagShift() - c.IndexShift()); got != c.Sets() {
			t.Errorf("%v: TagShift %d does not recover set count", c, c.TagShift())
		}
	}
	if len(byLine) != 2 || byLine[16] != 28 || byLine[32] != 28 {
		t.Errorf("line-size partition = %v, want 28 configs each for 16B and 32B", byLine)
	}
	if len(geoms) != 20 {
		t.Errorf("%d distinct (line, sets) geometries, want 20", len(geoms))
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := New(cfg(1024, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Error("first access hit a cold cache")
	}
	if !c.Access(0x1000) {
		t.Error("second access to the same line missed")
	}
	if !c.Access(0x100F) {
		t.Error("access within the same 16-byte line missed")
	}
	if c.Access(0x1010) {
		t.Error("next line hit without being loaded")
	}
	r := c.Result()
	if r.Accesses != 4 || r.Misses != 2 {
		t.Errorf("accesses=%d misses=%d, want 4,2", r.Accesses, r.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set of 16-byte lines: size = 32.
	c, err := New(cfg(32, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x000) // A
	c.Access(0x100) // B
	c.Access(0x000) // touch A: B is now LRU
	c.Access(0x200) // C evicts B
	if !c.Access(0x000) {
		t.Error("A evicted although it was most recently used")
	}
	if c.Access(0x100) {
		t.Error("B hit although it should have been the LRU victim")
	}
}

func TestFIFOEvictionIgnoresHits(t *testing.T) {
	c, err := New(Config{SizeBytes: 32, LineBytes: 16, Ways: 2, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x000) // A (oldest)
	c.Access(0x100) // B
	c.Access(0x000) // hit A: FIFO order unchanged
	c.Access(0x200) // C evicts A (oldest), not B
	// Probe B first: probing A would insert it and evict B.
	if !c.Access(0x100) {
		t.Error("B should have survived under FIFO")
	}
	if c.Access(0x000) {
		t.Error("FIFO should have evicted A despite the recent hit")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// Direct-mapped 1 KB, 16 B lines: addresses 1 KB apart conflict.
	c, err := New(cfg(1024, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Access(0x0000)
		c.Access(0x0400)
	}
	r := c.Result()
	if r.Misses != r.Accesses {
		t.Errorf("conflicting lines: misses=%d, want all %d", r.Misses, r.Accesses)
	}
	// The same pattern in a 2-way cache hits after the cold start.
	c2, _ := New(cfg(1024, 16, 2))
	for i := 0; i < 10; i++ {
		c2.Access(0x0000)
		c2.Access(0x0400)
	}
	if got := c2.Result().Misses; got != 2 {
		t.Errorf("2-way misses = %d, want 2 cold misses", got)
	}
}

func TestSequentialScanMissRateMatchesLineSize(t *testing.T) {
	// A byte-sequential scan misses once per line.
	for _, line := range []int{16, 32} {
		c, _ := New(cfg(4096, line, 1))
		n := 1 << 16
		for i := 0; i < n; i++ {
			c.Access(uint32(i))
		}
		want := 1.0 / float64(line)
		got := c.Result().MissRate()
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("line %d: scan miss rate = %f, want %f", line, got, want)
		}
	}
}

func TestRegionClassification(t *testing.T) {
	c, _ := New(cfg(1024, 16, 1))
	c.Access(0x00001000)          // RAM
	c.Access(bus.ROMBase + 0x100) // flash
	r := c.Result()
	if r.RAMRefs != 1 || r.FlashRefs != 1 {
		t.Errorf("ram=%d flash=%d, want 1,1", r.RAMRefs, r.FlashRefs)
	}
	if r.RAMMisses != 1 || r.FlashMisses != 1 {
		t.Errorf("ramMiss=%d flashMiss=%d, want 1,1", r.RAMMisses, r.FlashMisses)
	}
}

func TestEquations(t *testing.T) {
	// Equation 3: with 2/3 flash refs, T_eff(no cache) = (1*1 + 2*3)/3 = 2.333.
	got := NoCacheTeff(1, 2)
	if got < 2.33 || got > 2.34 {
		t.Errorf("NoCacheTeff(1,2) = %f, want 2.333", got)
	}
	// Equation 2 at MR=0 is exactly T_hit.
	r := Result{Accesses: 100, RAMRefs: 40, FlashRefs: 60}
	if r.TeffPaper() != THit {
		t.Errorf("Teff with no misses = %f, want %f", r.TeffPaper(), THit)
	}
	// Equation 2 at MR=1 with all-flash refs: 1 + 3 = 4.
	r = Result{Accesses: 10, Misses: 10, FlashRefs: 10, FlashMisses: 10}
	if r.TeffPaper() != 4 {
		t.Errorf("Teff all-miss flash = %f, want 4", r.TeffPaper())
	}
	if r.TeffExact() != 4 {
		t.Errorf("TeffExact all-miss flash = %f, want 4", r.TeffExact())
	}
}

// Property: a larger cache (same line size and ways scaled with size)
// never misses more than a smaller one on the same trace with LRU.
// (Strict inclusion holds for same-ways nested LRU caches; we test the
// doubled-sets case which preserves it for power-of-two strides too —
// weaker form: bigger cache misses <= smaller cache misses on random
// traces, allowing equality.)
func TestLargerCacheNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trace := make([]uint32, 50000)
	for i := range trace {
		// Mixture of sequential and random-walk accesses.
		if i > 0 && rng.Intn(4) != 0 {
			trace[i] = trace[i-1] + uint32(rng.Intn(64))
		} else {
			trace[i] = uint32(rng.Intn(1 << 20))
		}
	}
	small, err := Simulate(Config{SizeBytes: 4 << 10, LineBytes: 16, Ways: 8, Policy: LRU}, trace)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(Config{SizeBytes: 64 << 10, LineBytes: 16, Ways: 8, Policy: LRU}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if big.Misses > small.Misses {
		t.Errorf("64KB missed more (%d) than 4KB (%d)", big.Misses, small.Misses)
	}
}

// Property: full-associativity LRU over a working set that fits has zero
// misses after the cold start, regardless of access order.
func TestLRUFitWorkingSetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 8 lines, fully associative cache of 8 ways.
		c, err := New(Config{SizeBytes: 8 * 16, LineBytes: 16, Ways: 8, Policy: LRU})
		if err != nil {
			return false
		}
		lines := []uint32{0, 16, 32, 48, 64, 80, 96, 112}
		for _, a := range lines {
			c.Access(a)
		}
		for i := 0; i < 1000; i++ {
			c.Access(lines[rng.Intn(len(lines))])
		}
		return c.Result().Misses == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: miss count is invariant to rerunning the same trace on a
// fresh cache (determinism), and Sweep agrees with Simulate.
func TestSweepMatchesIndividualSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]uint32, 20000)
	for i := range trace {
		trace[i] = uint32(rng.Intn(1 << 18))
	}
	cfgs := PaperSweep()[:8]
	swept, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cfgs {
		single, err := Simulate(c, trace)
		if err != nil {
			t.Fatal(err)
		}
		if single != swept[i] {
			t.Errorf("%v: sweep result differs from individual run", c)
		}
	}
}

// Property: higher associativity at fixed size and line size does not
// increase the miss count under LRU for a looping working set.
func TestAssociativityHelpsLoops(t *testing.T) {
	// Pathological for direct-mapped: loop over lines that collide.
	var trace []uint32
	for rep := 0; rep < 100; rep++ {
		for j := 0; j < 4; j++ {
			trace = append(trace, uint32(j)*2048) // same set in 2KB direct-mapped
		}
	}
	dm, _ := Simulate(cfg(2048, 16, 1), trace)
	wa, _ := Simulate(cfg(2048, 16, 4), trace)
	if wa.Misses >= dm.Misses {
		t.Errorf("4-way misses (%d) not below direct-mapped (%d)", wa.Misses, dm.Misses)
	}
	if wa.Misses != 4 {
		t.Errorf("4-way misses = %d, want 4 cold misses", wa.Misses)
	}
}

func TestRandomPolicyStillCaches(t *testing.T) {
	var trace []uint32
	for i := 0; i < 1000; i++ {
		trace = append(trace, uint32(i%8)*16)
	}
	r, err := Simulate(Config{SizeBytes: 1024, LineBytes: 16, Ways: 4, Policy: Random}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissRate() > 0.05 {
		t.Errorf("random policy miss rate %f on trivially cacheable trace", r.MissRate())
	}
}

// TestShiftHelpers checks IndexShift/TagShift across every paper
// configuration: the shifts must reconstruct the configured geometry, and
// decomposing an address with them must agree with the cache's own
// line/set/tag arithmetic.
func TestShiftHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, c := range PaperSweep() {
		if got := 1 << c.IndexShift(); got != c.LineBytes {
			t.Errorf("%v: 1<<IndexShift = %d, want line size %d", c, got, c.LineBytes)
		}
		if got := 1 << (c.TagShift() - c.IndexShift()); got != c.Sets() {
			t.Errorf("%v: 1<<(TagShift-IndexShift) = %d, want %d sets", c, got, c.Sets())
		}
		for i := 0; i < 64; i++ {
			addr := rng.Uint32()
			offset := addr & uint32(c.LineBytes-1)
			set := addr >> c.IndexShift() & uint32(c.Sets()-1)
			tag := addr >> c.TagShift()
			rebuilt := tag<<c.TagShift() | set<<c.IndexShift() | offset
			if rebuilt != addr {
				t.Fatalf("%v: decompose(%#x) does not round-trip: got %#x", c, addr, rebuilt)
			}
		}
	}
}
