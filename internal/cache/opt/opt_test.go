package opt

import (
	"math/bits"
	"math/rand"
	"testing"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// mixedTrace mirrors the stack engine's test workload: roughly 1/3
// flash references, the rest RAM, over an 18-bit working set.
func mixedTrace(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]uint32, n)
	for i := range refs {
		if rng.Intn(3) == 0 {
			refs[i] = 0x10000000 + uint32(rng.Intn(1<<18))
		} else {
			refs[i] = uint32(rng.Intn(1 << 18))
		}
	}
	return refs
}

func mixedKinds(n int, seed int64) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]uint8, n)
	for i := range kinds {
		kinds[i] = uint8(rng.Intn(3))
	}
	return kinds
}

func optCfg(size, line, ways int) cache.Config {
	return cache.Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: cache.OPT}
}

// TestAnnotationAgainstForwardScan verifies the backward-pass chain
// against a brute-force forward scan on a small trace.
func TestAnnotationAgainstForwardScan(t *testing.T) {
	trace := mixedTrace(3000, 11)
	for _, lb := range []int{16, 32} {
		ann, err := Annotate(trace, lb)
		if err != nil {
			t.Fatal(err)
		}
		shift := uint(bits.TrailingZeros(uint(lb)))
		for i := range trace {
			want := NoNextUse
			for j := i + 1; j < len(trace); j++ {
				if trace[j]>>shift == trace[i]>>shift {
					want = uint32(j)
					break
				}
			}
			if ann.Next[i] != want {
				t.Fatalf("lb=%d Next[%d]=%d, want %d", lb, i, ann.Next[i], want)
			}
		}
	}
}

// bruteOPT simulates OPT by scanning the raw future of the trace at
// every eviction — no annotation, no shared code with either engine.
// It is quadratic, so keep its traces small.
func bruteOPT(cfg cache.Config, trace []uint32) cache.Result {
	shift := cfg.IndexShift()
	sets := cfg.Sets()
	setMask := uint32(sets - 1)
	lines := make([]uint32, sets*cfg.Ways) // line+1; 0 invalid
	res := cache.Result{Config: cfg}
	for i, addr := range trace {
		isFlash := addr-bus.ROMBase < bus.ROMSize
		res.Accesses++
		if isFlash {
			res.FlashRefs++
		} else {
			res.RAMRefs++
		}
		line := addr >> shift
		base := int(line&setMask) * cfg.Ways
		key := line + 1
		hit := false
		for w := 0; w < cfg.Ways; w++ {
			if lines[base+w] == key {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		res.Misses++
		if isFlash {
			res.FlashMisses++
		} else {
			res.RAMMisses++
		}
		victim := -1
		for w := 0; w < cfg.Ways; w++ {
			if lines[base+w] == 0 {
				victim = w
				break
			}
		}
		if victim < 0 {
			// For each resident way, find its next use by scanning the
			// future; evict the first way with the farthest next use.
			far := make([]uint32, cfg.Ways)
			for w := 0; w < cfg.Ways; w++ {
				far[w] = NoNextUse
				for j := i + 1; j < len(trace); j++ {
					if trace[j]>>shift+1 == lines[base+w] {
						far[w] = uint32(j)
						break
					}
				}
			}
			victim = 0
			for w := 1; w < cfg.Ways; w++ {
				if far[w] > far[victim] {
					victim = w
				}
			}
		}
		lines[base+victim] = key
	}
	return res
}

// TestDirectMatchesBruteForce anchors the annotated reference simulator
// to the future-scanning transcription of Belady's rule.
func TestDirectMatchesBruteForce(t *testing.T) {
	trace := mixedTrace(4000, 2005)
	for _, cfg := range []cache.Config{
		optCfg(1024, 16, 1), optCfg(1024, 16, 4), optCfg(2048, 32, 2), optCfg(1024, 32, 8),
	} {
		ann, err := Annotate(trace, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDirect(cfg, ann)
		if err != nil {
			t.Fatal(err)
		}
		d.AccessAll(trace)
		if got, want := d.Result(), bruteOPT(cfg, trace); got != want {
			t.Errorf("%v: direct %+v != brute %+v", cfg, got, want)
		}
	}
}

// optPaperSweep returns the 56 paper configurations re-labeled OPT.
func optPaperSweep() []cache.Config {
	cfgs := cache.PaperSweep()
	for i := range cfgs {
		cfgs[i].Policy = cache.OPT
	}
	return cfgs
}

// TestFamilyMatchesDirect runs the full 56-config OPT sweep through the
// family engine and the reference simulator and requires bit-identical
// results, config by config.
func TestFamilyMatchesDirect(t *testing.T) {
	trace := mixedTrace(80000, 56)
	got, err := Sweep(optPaperSweep(), trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range optPaperSweep() {
		ann, err := Annotate(trace, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDirect(cfg, ann)
		if err != nil {
			t.Fatal(err)
		}
		d.AccessAll(trace)
		if got[i] != d.Result() {
			t.Errorf("%v: family %+v != direct %+v", cfg, got[i], d.Result())
		}
	}
}

// TestFamilyMatchesDirectKinded repeats the differential with kinds and
// every write policy, covering the dirty/writeback paths.
func TestFamilyMatchesDirectKinded(t *testing.T) {
	const n = 60000
	trace := mixedTrace(n, 7)
	kinds := mixedKinds(n, 8)
	var cfgs []cache.Config
	for _, wp := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
		for _, geom := range [][3]int{{1024, 16, 1}, {4096, 16, 4}, {8192, 32, 8}} {
			c := optCfg(geom[0], geom[1], geom[2])
			c.Write = wp
			cfgs = append(cfgs, c)
		}
	}
	anns, err := AnnotateAll(trace, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfgs, anns)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range e.Families() {
		f.AccessAllKinded(trace, kinds)
	}
	got := e.Results()
	for i, cfg := range cfgs {
		d, err := NewDirect(cfg, anns[cfg.LineBytes])
		if err != nil {
			t.Fatal(err)
		}
		d.AccessAllKinded(trace, kinds)
		if got[i] != d.Result() {
			t.Errorf("%v: family %+v != direct %+v", cfg, got[i], d.Result())
		}
		if cfg.Write == cache.WriteBack && got[i].Writebacks == 0 {
			t.Errorf("%v: no writebacks on a write-heavy trace", cfg)
		}
	}
}

// TestOptimality is the self-checking invariant of Belady's proof: OPT
// cannot miss more than any other policy on the same trace and
// geometry. Run every paper geometry against LRU, FIFO, Random, and
// PLRU on several random traces.
func TestOptimality(t *testing.T) {
	for _, seed := range []int64{1, 2005, 56} {
		trace := mixedTrace(50000, seed)
		optRes, err := Sweep(optPaperSweep(), trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.PLRU} {
			cfgs := cache.PaperSweep()
			for i := range cfgs {
				cfgs[i].Policy = pol
			}
			res, err := cache.Sweep(cfgs, trace)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if optRes[i].Misses > res[i].Misses {
					t.Errorf("seed %d %v: OPT misses %d > %s misses %d",
						seed, cfgs[i], optRes[i].Misses, pol, res[i].Misses)
				}
			}
		}
	}
}

// TestFamilyChunkedMatchesWhole feeds the family engine the trace in
// ragged chunks and requires the same results as one whole pass — the
// contract the sweep fan-out depends on.
func TestFamilyChunkedMatchesWhole(t *testing.T) {
	trace := mixedTrace(40000, 3)
	cfgs := optPaperSweep()
	whole, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	anns, err := AnnotateAll(trace, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfgs, anns)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for pos := 0; pos < len(trace); {
		n := 1 + rng.Intn(5000)
		if pos+n > len(trace) {
			n = len(trace) - pos
		}
		for _, f := range e.Families() {
			f.AccessAll(trace[pos : pos+n])
		}
		pos += n
	}
	got := e.Results()
	for i := range cfgs {
		if got[i] != whole[i] {
			t.Errorf("%v: chunked %+v != whole %+v", cfgs[i], got[i], whole[i])
		}
	}
}

// TestStateRoundTrip feeds kinded write-back OPT families, and the
// direct OPT simulator that no chunked test covers, the trace in random
// pieces (empty and one-reference pieces included) and requires the
// results of one whole pass. Each unit keeps its own trace position
// across pieces, so the annotation lines up wherever a piece ends.
func TestStateRoundTrip(t *testing.T) {
	const n = 30000
	trace := mixedTrace(n, 21)
	kinds := mixedKinds(n, 22)
	var cfgs []cache.Config
	for _, geom := range [][3]int{{1024, 16, 2}, {4096, 32, 4}} {
		c := optCfg(geom[0], geom[1], geom[2])
		c.Write = cache.WriteBack
		cfgs = append(cfgs, c)
	}
	anns, err := AnnotateAll(trace, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewEngine(cfgs, anns)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range whole.Families() {
		f.AccessAllKinded(trace, kinds)
	}
	want := whole.Results()

	rng := rand.New(rand.NewSource(23))
	feed := func(access func(refs []uint32, kinds []uint8), max int) {
		for lo := 0; lo < n; {
			hi := min(n, lo+rng.Intn(max+1))
			access(trace[lo:hi], kinds[lo:hi])
			lo = hi
		}
	}
	for _, max := range []int{1, 7, 5000} {
		split, err := NewEngine(cfgs, anns)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range split.Families() {
			feed(f.AccessAllKinded, max)
		}
		for i, got := range split.Results() {
			if got != want[i] {
				t.Errorf("%v pieces of up to %d: %+v != whole %+v", cfgs[i], max, got, want[i])
			}
		}
		for i, cfg := range cfgs {
			d, err := NewDirect(cfg, anns[cfg.LineBytes])
			if err != nil {
				t.Fatal(err)
			}
			feed(d.AccessAllKinded, max)
			if d.Result() != want[i] {
				t.Errorf("%v direct, pieces of up to %d: %+v != whole %+v", cfg, max, d.Result(), want[i])
			}
		}
	}
}

// TestEngineGrouping pins the family planning: the 56-config sweep has
// two line sizes, so two families, and results come back in input
// order.
func TestEngineGrouping(t *testing.T) {
	cfgs := optPaperSweep()
	e, err := NewEngine(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Families()) != 2 {
		t.Fatalf("got %d families, want 2", len(e.Families()))
	}
	if e.Families()[0].LineBytes() != 16 || e.Families()[1].LineBytes() != 32 {
		t.Fatalf("family order not deterministic: %d, %d",
			e.Families()[0].LineBytes(), e.Families()[1].LineBytes())
	}
	if e.Families()[0].Configs()+e.Families()[1].Configs() != 56 {
		t.Fatal("families do not cover the sweep")
	}
	for i, r := range e.Results() {
		if r.Config != cfgs[i] {
			t.Fatalf("result %d carries config %v, want %v", i, r.Config, cfgs[i])
		}
	}
}

// TestConstructorRejections covers the error paths.
func TestConstructorRejections(t *testing.T) {
	lru := cache.Config{SizeBytes: 1024, LineBytes: 16, Ways: 2, Policy: cache.LRU}
	if _, err := NewDirect(lru, nil); err == nil {
		t.Error("NewDirect accepted an LRU config")
	}
	if _, err := NewEngine([]cache.Config{lru}, nil); err == nil {
		t.Error("NewEngine accepted an LRU config")
	}
	ann := &Annotation{LineBytes: 32}
	if _, err := NewDirect(optCfg(1024, 16, 2), ann); err == nil {
		t.Error("NewDirect accepted a mismatched annotation")
	}
	if _, err := NewEngine([]cache.Config{optCfg(1024, 16, 2)}, map[int]*Annotation{32: ann}); err == nil {
		t.Error("NewEngine accepted a missing annotation")
	}
	if _, err := Annotate(nil, 24); err == nil {
		t.Error("Annotate accepted a non-power-of-two line size")
	}
}
