package cache

import (
	"math/rand"
	"testing"

	"palmsim/internal/m68k"
)

// TestKindConstantsMatchM68k pins the kind encoding shared between the
// trace collectors (internal/m68k) and the kinded cache paths; a drift
// here would silently misclassify writes.
func TestKindConstantsMatchM68k(t *testing.T) {
	if uint8(m68k.Fetch) != KindFetch || uint8(m68k.Read) != KindRead || uint8(m68k.Write) != KindWrite {
		t.Fatalf("kind constants drifted: m68k=(%d,%d,%d) cache=(%d,%d,%d)",
			m68k.Fetch, m68k.Read, m68k.Write, KindFetch, KindRead, KindWrite)
	}
	if !IsWrite(KindWrite) || IsWrite(KindRead) || IsWrite(KindFetch) {
		t.Fatal("IsWrite misclassifies kinds")
	}
}

// TestPLRUTreeInvariants checks the shared tree primitives directly:
// after touching way w, w is never the victim; touch is idempotent; and
// with ways==1 the only way is always the victim.
func TestPLRUTreeInvariants(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		maxBits := uint8(0)
		if ways > 1 {
			maxBits = 1<<uint(ways-1) - 1
		}
		for tree := uint8(0); ; tree++ {
			v := PLRUVictim(tree, ways)
			if v < 0 || v >= ways {
				t.Fatalf("ways=%d tree=%#x: victim %d out of range", ways, tree, v)
			}
			for w := 0; w < ways; w++ {
				after := PLRUTouch(tree, ways, w)
				if ways > 1 && PLRUVictim(after, ways) == w {
					t.Fatalf("ways=%d tree=%#x: way %d still victim after touch", ways, tree, w)
				}
				if again := PLRUTouch(after, ways, w); again != after {
					t.Fatalf("ways=%d tree=%#x way=%d: touch not idempotent (%#x -> %#x)", ways, tree, w, after, again)
				}
			}
			if tree == maxBits {
				break
			}
		}
	}
}

// randKinded builds a random trace with kinds: roughly 1/3 flash refs
// (always fetch/read; the ROM is not writable), and RAM refs split
// across fetch/read/write.
func randKinded(n int, seed int64) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]uint32, n)
	kinds := make([]uint8, n)
	for i := range refs {
		if rng.Intn(3) == 0 {
			refs[i] = 0x10000000 + uint32(rng.Intn(1<<18))
			kinds[i] = uint8(rng.Intn(2)) // fetch or read
		} else {
			refs[i] = uint32(rng.Intn(1 << 18))
			kinds[i] = uint8(rng.Intn(3))
		}
	}
	return refs, kinds
}

// TestKindedAccessPreservesMissCounters verifies the core write-allocate
// contract: AccessKind produces exactly the hit/miss counters of Access
// for every policy and write policy, because kinds only affect traffic
// accounting, never replacement.
func TestKindedAccessPreservesMissCounters(t *testing.T) {
	refs, kinds := randKinded(60000, 9)
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		for _, wp := range []WritePolicy{WriteIgnore, WriteThrough, WriteBack} {
			c := Config{SizeBytes: 4096, LineBytes: 16, Ways: 4, Policy: pol, Write: wp}
			plain, err := New(Config{SizeBytes: 4096, LineBytes: 16, Ways: 4, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			kinded, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			plain.AccessAll(refs)
			kinded.AccessAllKinded(refs, kinds)
			p, k := plain.Result(), kinded.Result()
			if p.Misses != k.Misses || p.RAMMisses != k.RAMMisses || p.FlashMisses != k.FlashMisses ||
				p.Accesses != k.Accesses || p.RAMRefs != k.RAMRefs || p.FlashRefs != k.FlashRefs {
				t.Errorf("%v: kinded access diverged from plain: %+v vs %+v", c, k, p)
			}
			var wantWrites uint64
			for _, kd := range kinds {
				if IsWrite(kd) {
					wantWrites++
				}
			}
			if k.Writes != wantWrites {
				t.Errorf("%v: Writes=%d want %d", c, k.Writes, wantWrites)
			}
			if wp != WriteBack && k.Writebacks != 0 {
				t.Errorf("%v: Writebacks=%d without write-back", c, k.Writebacks)
			}
			if wp == WriteBack && k.Writebacks == 0 {
				t.Errorf("%v: no writebacks on a write-heavy trace", c)
			}
		}
	}
}

// runKinded sweeps a kinded trace through a fresh cache of the given
// configuration.
func runKinded(t *testing.T, cfg Config, trace []uint32, kinds []uint8) Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AccessAllKinded(trace, kinds)
	return c.Result()
}

// TestTrafficBasics walks one dirty eviction through write-back
// accounting: read A, write A (dirty), read B, read C (evicts A).
func TestTrafficBasics(t *testing.T) {
	cfg := Config{SizeBytes: 32, LineBytes: 16, Ways: 2, Policy: LRU, Write: WriteBack}
	trace := []uint32{0x000, 0x004, 0x100, 0x200}
	kinds := []uint8{KindRead, KindWrite, KindRead, KindRead}
	res := runKinded(t, cfg, trace, kinds)
	if res.Writes != 1 {
		t.Errorf("writes = %d", res.Writes)
	}
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3 (A, B, C)", res.Misses)
	}
	if res.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty A evicted)", res.Writebacks)
	}
	if got := res.WriteTrafficBytes(); got != 16 {
		t.Errorf("write-back traffic %d, want 16 (one line)", got)
	}
}

// TestCleanEvictionNoWriteback: evicting lines that were only read
// writes nothing back.
func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := Config{SizeBytes: 16, LineBytes: 16, Ways: 1, Policy: LRU, Write: WriteBack}
	res := runKinded(t, cfg, []uint32{0x000, 0x100, 0x200}, []uint8{KindRead, KindRead, KindRead})
	if res.Writebacks != 0 {
		t.Errorf("writebacks = %d for read-only trace", res.Writebacks)
	}
}

// TestWriteBackWinsForWriteHotLine: many writes to the same resident
// line cost write-through one memory write each, write-back at most one
// eventual writeback.
func TestWriteBackWinsForWriteHotLine(t *testing.T) {
	var trace []uint32
	var kinds []uint8
	for i := 0; i < 1000; i++ {
		trace = append(trace, 0x40)
		kinds = append(kinds, KindWrite)
	}
	cfg := Config{SizeBytes: 1024, LineBytes: 16, Ways: 1, Policy: LRU, Write: WriteThrough}
	wt := runKinded(t, cfg, trace, kinds)
	cfg.Write = WriteBack
	wb := runKinded(t, cfg, trace, kinds)
	if wb.WriteTrafficBytes() >= wt.WriteTrafficBytes() {
		t.Errorf("WB %d >= WT %d on a write-hot line", wb.WriteTrafficBytes(), wt.WriteTrafficBytes())
	}
}

// TestTrafficMatchesPlainSimulation: write-back accounting leaves the
// base statistics of the kind-blind simulator untouched.
func TestTrafficMatchesPlainSimulation(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 16, Ways: 2, Policy: LRU}
	var trace []uint32
	var kinds []uint8
	for i := 0; i < 5000; i++ {
		trace = append(trace, uint32(i*13%2048))
		kinds = append(kinds, KindRead)
	}
	plain, err := Simulate(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Write = WriteBack
	kinded := runKinded(t, cfg, trace, kinds)
	if plain.Misses != kinded.Misses || plain.Accesses != kinded.Accesses {
		t.Errorf("write-back accounting diverged: misses %d vs %d", kinded.Misses, plain.Misses)
	}
}

// TestWriteTrafficBytes pins the traffic derivation per write policy.
func TestWriteTrafficBytes(t *testing.T) {
	r := Result{Config: Config{LineBytes: 32, Write: WriteThrough}, Writes: 10, Writebacks: 4}
	if got := r.WriteTrafficBytes(); got != 20 {
		t.Errorf("write-through traffic %d, want 20", got)
	}
	r.Config.Write = WriteBack
	if got := r.WriteTrafficBytes(); got != 128 {
		t.Errorf("write-back traffic %d, want 128", got)
	}
	r.Config.Write = WriteIgnore
	if got := r.WriteTrafficBytes(); got != 0 {
		t.Errorf("ignore traffic %d, want 0", got)
	}
}

// TestOPTRejectedByDirectCache: the direct simulator cannot implement
// OPT (it has no future knowledge); construction must fail loudly.
func TestOPTRejectedByDirectCache(t *testing.T) {
	if _, err := New(Config{SizeBytes: 1024, LineBytes: 16, Ways: 2, Policy: OPT}); err == nil {
		t.Fatal("cache.New accepted an OPT config")
	}
}

// TestPolicyParsing round-trips the CLI-facing parsers.
func TestPolicyParsing(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU, OPT} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("MRU"); err == nil {
		t.Error("ParsePolicy accepted MRU")
	}
	for name, want := range map[string]WritePolicy{
		"ignore": WriteIgnore, "": WriteIgnore, "through": WriteThrough,
		"wt": WriteThrough, "back": WriteBack, "write-back": WriteBack,
	} {
		got, err := ParseWritePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseWritePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseWritePolicy("around"); err == nil {
		t.Error("ParseWritePolicy accepted write-around")
	}
}
