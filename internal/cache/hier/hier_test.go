package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// synthTrace builds a mixed RAM/flash kinded trace: flash fetches, RAM
// reads over a working set that overflows small L1s, and writes on a
// hot region so write-back levels evict dirty lines.
func synthTrace(n int, seed int64) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]uint32, n)
	kinds := make([]uint8, n)
	for i := range refs {
		switch r := rng.Intn(10); {
		case r < 3:
			refs[i] = bus.ROMBase + uint32(rng.Intn(1<<14))
			kinds[i] = cache.KindFetch
		case r < 7:
			refs[i] = uint32(rng.Intn(1 << 13))
			kinds[i] = cache.KindRead
		default:
			refs[i] = 0x8000 + uint32(rng.Intn(1<<11))
			kinds[i] = cache.KindWrite
		}
	}
	return refs, kinds
}

func mkcfg(size, line, ways int, p cache.Policy, w cache.WritePolicy) cache.Config {
	return cache.Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: p, Write: w}
}

// composedOracle simulates the hierarchy with independent single-level
// cache.Cache instances glued together per reference by the exported
// per-event primitives — the reference semantics the fused Sim must
// match bit for bit. It deliberately avoids Sim and FilterChunkKinded.
type composedOracle struct {
	h              cache.Hierarchy
	levels         []*cache.Cache
	l1Shift        uint32
	l2Shift        uint32
	backInval      uint64
	backInvalDirty uint64
}

func newComposedOracle(t *testing.T, h cache.Hierarchy) *composedOracle {
	t.Helper()
	o := &composedOracle{h: h}
	for _, cfg := range h.Levels {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.levels = append(o.levels, c)
	}
	o.l1Shift = o.shiftOf(0)
	if len(h.Levels) > 1 {
		o.l2Shift = o.shiftOf(1)
	}
	return o
}

// events applies one level's access and returns the canonical filtered
// miss stream for the next level: write-back victim, fill, WT store.
func levelEvents(c *cache.Cache, cfg cache.Config, shift uint32, addr uint32, kind uint8) (outRefs []uint32, outKinds []uint8, ev cache.AccessEvent) {
	ev = c.AccessKindEv(addr, kind)
	if ev.EvictedDirty {
		outRefs = append(outRefs, ev.EvictedLine<<shift)
		outKinds = append(outKinds, cache.KindWrite)
	}
	if !ev.Hit {
		outRefs = append(outRefs, addr&^(uint32(cfg.LineBytes)-1))
		outKinds = append(outKinds, cache.KindRead)
	}
	if cfg.Write == cache.WriteThrough && kind == cache.KindWrite {
		outRefs = append(outRefs, addr)
		outKinds = append(outKinds, cache.KindWrite)
	}
	return
}

func (o *composedOracle) access(addr uint32, kind uint8) {
	switch o.h.Content {
	case cache.Exclusive:
		l1, l2 := o.levels[0], o.levels[1]
		ev := l1.AccessKindEv(addr, kind)
		if !ev.Hit {
			if hit, dirty := l2.ProbeInvalidate(addr); hit && dirty {
				l1.MarkLineDirty(addr >> o.l1Shift)
			}
		}
		if ev.Evicted {
			l2.InsertLine(ev.EvictedLine, ev.EvictedDirty)
		}
	case cache.Inclusive:
		refs, kinds, _ := levelEvents(o.levels[0], o.h.Levels[0], o.l1Shift, addr, kind)
		for i := range refs {
			ev2 := o.levels[1].AccessKindEv(refs[i], kinds[i])
			if ev2.Evicted {
				ratio := uint32(1) << (o.l2Shift - o.l1Shift)
				first := ev2.EvictedLine << (o.l2Shift - o.l1Shift)
				for k := uint32(0); k < ratio; k++ {
					if present, dirty := o.levels[0].InvalidateLine(first + k); present {
						o.backInval++
						if dirty {
							o.backInvalDirty++
						}
					}
				}
			}
		}
	default: // NINE: cascade the stream level by level
		refs, kinds := []uint32{addr}, []uint8{kind}
		for li := 0; li < len(o.levels)-1; li++ {
			var nrefs []uint32
			var nkinds []uint8
			for i := range refs {
				r, k, _ := levelEvents(o.levels[li], o.h.Levels[li], o.shiftOf(li), refs[i], kinds[i])
				nrefs = append(nrefs, r...)
				nkinds = append(nkinds, k...)
			}
			refs, kinds = nrefs, nkinds
		}
		last := o.levels[len(o.levels)-1]
		for i := range refs {
			last.AccessKind(refs[i], kinds[i])
		}
	}
}

func (o *composedOracle) shiftOf(li int) uint32 {
	s := uint32(0)
	for 1<<s != uint32(o.h.Levels[li].LineBytes) {
		s++
	}
	return s
}

func (o *composedOracle) results() cache.HierarchyResult {
	r := cache.HierarchyResult{Hierarchy: o.h, BackInvalidations: o.backInval, BackInvalDirty: o.backInvalDirty}
	for _, c := range o.levels {
		r.Levels = append(r.Levels, c.Result())
	}
	return r
}

func compareHier(t *testing.T, label string, got, want cache.HierarchyResult) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels vs %d", label, len(got.Levels), len(want.Levels))
	}
	for i := range got.Levels {
		if got.Levels[i] != want.Levels[i] {
			t.Errorf("%s: level %d diverges:\n fused    %+v\n composed %+v", label, i+1, got.Levels[i], want.Levels[i])
		}
	}
	if got.BackInvalidations != want.BackInvalidations || got.BackInvalDirty != want.BackInvalDirty {
		t.Errorf("%s: back-invalidation %d/%d vs %d/%d", label,
			got.BackInvalidations, got.BackInvalDirty, want.BackInvalidations, want.BackInvalDirty)
	}
}

// TestFusedVsComposed is the hierarchy-oracle differential suite:
// every content policy × write-policy pairing, fused Sim (chunked)
// against the composed per-reference oracle.
func TestFusedVsComposed(t *testing.T) {
	refs, kinds := synthTrace(40000, 1105)
	writes := []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack}
	for _, content := range []cache.ContentPolicy{cache.NonInclusive, cache.Inclusive, cache.Exclusive} {
		for _, w1 := range writes {
			for _, w2 := range writes {
				l2Line := 32
				if content == cache.Exclusive {
					l2Line = 16 // exclusive pairs need equal line sizes
					if w1 == cache.WriteBack && w2 != cache.WriteBack {
						continue // invalid by Hierarchy.Validate
					}
				}
				h := cache.Hierarchy{
					Levels: []cache.Config{
						mkcfg(1024, 16, 2, cache.LRU, w1),
						mkcfg(8192, l2Line, 4, cache.LRU, w2),
					},
					Content: content,
				}
				label := h.String()
				sim, err := New(h)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Feed the fused path in uneven chunks to cross buffer
				// boundaries.
				for lo := 0; lo < len(refs); lo += 7001 {
					hi := lo + 7001
					if hi > len(refs) {
						hi = len(refs)
					}
					sim.AccessAllKinded(refs[lo:hi], kinds[lo:hi])
				}
				oracle := newComposedOracle(t, h)
				for i := range refs {
					oracle.access(refs[i], kinds[i])
				}
				compareHier(t, label, sim.Results(), oracle.results())
			}
		}
	}
}

// TestFusedVsComposedPolicies varies the replacement policy at both
// levels under the NINE default.
func TestFusedVsComposedPolicies(t *testing.T) {
	refs, kinds := synthTrace(30000, 7)
	for _, p1 := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		for _, p2 := range []cache.Policy{cache.LRU, cache.Random, cache.PLRU} {
			h := cache.Hierarchy{Levels: []cache.Config{
				mkcfg(2048, 16, 4, p1, cache.WriteBack),
				mkcfg(16384, 32, 4, p2, cache.WriteBack),
			}}
			sim, err := New(h)
			if err != nil {
				t.Fatal(err)
			}
			sim.AccessAllKinded(refs, kinds)
			oracle := newComposedOracle(t, h)
			for i := range refs {
				oracle.access(refs[i], kinds[i])
			}
			compareHier(t, h.String(), sim.Results(), oracle.results())
		}
	}
}

// TestThreeLevelNINE exercises the N-level cascade.
func TestThreeLevelNINE(t *testing.T) {
	refs, kinds := synthTrace(20000, 3)
	h := cache.Hierarchy{Levels: []cache.Config{
		mkcfg(512, 16, 1, cache.LRU, cache.WriteBack),
		mkcfg(4096, 16, 2, cache.LRU, cache.WriteBack),
		mkcfg(32768, 32, 4, cache.LRU, cache.WriteBack),
	}}
	sim, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	sim.AccessAllKinded(refs, kinds)
	oracle := newComposedOracle(t, h)
	for i := range refs {
		oracle.access(refs[i], kinds[i])
	}
	compareHier(t, h.String(), sim.Results(), oracle.results())
	r := sim.Results()
	if r.Levels[1].Accesses == 0 || r.Levels[2].Accesses == 0 {
		t.Error("filtered stream never reached the lower levels")
	}
	if r.Levels[1].Accesses <= r.Levels[2].Accesses {
		t.Errorf("stream must thin going down: L2 %d accesses, L3 %d", r.Levels[1].Accesses, r.Levels[2].Accesses)
	}
}

// TestSingleLevelBitIdentity holds a one-level Sim to the plain
// single-level simulator, kinded and address-only.
func TestSingleLevelBitIdentity(t *testing.T) {
	refs, kinds := synthTrace(30000, 42)
	for _, w := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
		cfg := mkcfg(1024, 16, 2, cache.LRU, w)
		sim, err := New(cache.Single(cfg))
		if err != nil {
			t.Fatal(err)
		}
		sim.AccessAllKinded(refs, kinds)
		direct, _ := cache.New(cfg)
		direct.AccessAllKinded(refs, kinds)
		if got, want := sim.Results().Levels[0], direct.Result(); got != want {
			t.Errorf("%v kinded: fused %+v != direct %+v", w, got, want)
		}
	}
	// Address-only path.
	refs2, _ := synthTrace(30000, 43)
	cfg := mkcfg(1024, 16, 2, cache.PLRU, cache.WriteIgnore)
	sim, _ := New(cache.Single(cfg))
	sim.AccessAll(refs2)
	direct, _ := cache.New(cfg)
	direct.AccessAll(refs2)
	if got, want := sim.Results().Levels[0], direct.Result(); got != want {
		t.Errorf("address-only: fused %+v != direct %+v", got, want)
	}
}

// TestInclusionInvariant verifies that under Inclusive every resident
// L1 line is covered by a resident L2 line throughout the run.
func TestInclusionInvariant(t *testing.T) {
	refs, kinds := synthTrace(8000, 11)
	h := cache.Hierarchy{Levels: []cache.Config{
		mkcfg(512, 16, 2, cache.LRU, cache.WriteBack),
		mkcfg(2048, 32, 2, cache.LRU, cache.WriteBack), // small L2: evictions happen
	}, Content: cache.Inclusive}
	sim, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	ratioShift := uint32(1) // 32B L2 lines over 16B L1 lines
	for i := range refs {
		sim.Access(refs[i], kinds[i])
		if i%251 != 0 {
			continue
		}
		l2set := map[uint32]bool{}
		for _, line := range sim.levels[1].Contents() {
			l2set[line] = true
		}
		for _, l1line := range sim.levels[0].Contents() {
			if !l2set[l1line>>ratioShift] {
				t.Fatalf("ref %d: L1 line %#x not covered by L2", i, l1line)
			}
		}
	}
	if sim.Results().BackInvalidations == 0 {
		t.Error("trace never exercised back-invalidation; weaken the L2")
	}
}

// TestExclusionInvariant verifies that under Exclusive no line is ever
// resident at both levels.
func TestExclusionInvariant(t *testing.T) {
	refs, kinds := synthTrace(8000, 13)
	h := cache.Hierarchy{Levels: []cache.Config{
		mkcfg(512, 16, 2, cache.LRU, cache.WriteBack),
		mkcfg(2048, 16, 2, cache.LRU, cache.WriteBack),
	}, Content: cache.Exclusive}
	sim, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		sim.Access(refs[i], kinds[i])
		if i%251 != 0 {
			continue
		}
		l1set := map[uint32]bool{}
		for _, line := range sim.levels[0].Contents() {
			l1set[line] = true
		}
		for _, line := range sim.levels[1].Contents() {
			if l1set[line] {
				t.Fatalf("ref %d: line %#x resident at both levels", i, line)
			}
		}
	}
	if sim.Results().Levels[1].Accesses == 0 {
		t.Error("L1 never missed; trace too small")
	}
}

// stateHierarchies are one hierarchy per content policy, with
// write-back levels, so dirty victims, back-invalidations and line
// migration all carry across piece boundaries.
func stateHierarchies() []cache.Hierarchy {
	return []cache.Hierarchy{
		{Levels: []cache.Config{mkcfg(1024, 16, 2, cache.LRU, cache.WriteBack), mkcfg(8192, 32, 4, cache.PLRU, cache.WriteBack)}},
		{Levels: []cache.Config{mkcfg(512, 16, 2, cache.FIFO, cache.WriteThrough), mkcfg(4096, 32, 2, cache.LRU, cache.WriteBack)}, Content: cache.Inclusive},
		{Levels: []cache.Config{mkcfg(512, 16, 2, cache.LRU, cache.WriteBack), mkcfg(4096, 16, 2, cache.LRU, cache.WriteBack)}, Content: cache.Exclusive},
	}
}

// TestStateRoundTrip cuts the trace once at every 97th position and
// feeds a fresh Sim the two pieces; each must end with the results of a
// Sim fed the trace whole.
func TestStateRoundTrip(t *testing.T) {
	refs, kinds := synthTrace(20000, 21)
	for _, h := range stateHierarchies() {
		ref, err := New(h)
		if err != nil {
			t.Fatal(err)
		}
		ref.AccessAllKinded(refs, kinds)
		for cut := 0; cut <= len(refs); cut += 97 {
			split, _ := New(h)
			split.AccessAllKinded(refs[:cut], kinds[:cut])
			split.AccessAllKinded(refs[cut:], kinds[cut:])
			compareHier(t, fmt.Sprintf("%s cut at %d", h, cut), split.Results(), ref.Results())
		}
	}
}

// TestRestoreStateRejectsBadBlobs feeds the degenerate pieces: one
// reference at a time with an empty piece after each, over a kinded
// trace and over the same trace with nil kinds. Both must match one
// whole pass.
func TestRestoreStateRejectsBadBlobs(t *testing.T) {
	refs, kinds := synthTrace(5000, 22)
	for _, h := range stateHierarchies() {
		for _, k := range [][]uint8{kinds, nil} {
			ref, _ := New(h)
			ref.AccessAllKinded(refs, k)
			split, _ := New(h)
			for i := range refs {
				var one []uint8
				if k != nil {
					one = k[i : i+1]
				}
				split.AccessAllKinded(refs[i:i+1], one)
				split.AccessAllKinded(refs[i+1:i+1], nil)
			}
			compareHier(t, fmt.Sprintf("%s one at a time, kinds %v", h, k != nil), split.Results(), ref.Results())
		}
	}
}

func TestNewRejectsInvalidHierarchy(t *testing.T) {
	if _, err := New(cache.Hierarchy{}); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := New(cache.Hierarchy{Levels: []cache.Config{
		mkcfg(1024, 16, 1, cache.OPT, cache.WriteIgnore),
		mkcfg(8192, 32, 4, cache.LRU, cache.WriteIgnore),
	}}); err == nil {
		t.Error("multi-level OPT accepted")
	}
}

// FuzzHierarchyVsComposed fuzzes the fused path against the composed
// oracle: the fuzzer picks the content policy, write policies, and
// geometry knobs, plus raw bytes that become a short kinded trace.
func FuzzHierarchyVsComposed(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), uint8(1), []byte("seed corpus trace bytes here!"))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(2), uint8(2), uint8(2), uint8(3), []byte{0xFF, 0x80, 0x00, 0x41, 0x20, 0x11})
	f.Fuzz(func(t *testing.T, content, w1, w2, geom uint8, data []byte) {
		writes := []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack}
		cp := cache.ContentPolicy(content % 3)
		l2Line := 32
		if cp == cache.Exclusive {
			l2Line = 16
		}
		h := cache.Hierarchy{Levels: []cache.Config{
			mkcfg(256<<(geom%3), 16, 1<<(geom%2), cache.LRU, writes[w1%3]),
			mkcfg(4096, l2Line, 2, cache.LRU, writes[w2%3]),
		}, Content: cp}
		if h.Validate() != nil {
			t.Skip() // e.g. exclusive WB-over-WT pairings
		}
		// Derive a trace: 3 bytes per reference (region/kind + 2 addr
		// bytes) keeps the working set small enough to collide.
		n := len(data) / 3
		if n == 0 {
			t.Skip()
		}
		refs := make([]uint32, n)
		kinds := make([]uint8, n)
		for i := 0; i < n; i++ {
			b := data[i*3 : i*3+3]
			addr := uint32(b[1])<<8 | uint32(b[2])
			if b[0]&0x80 != 0 {
				refs[i] = bus.ROMBase + addr
			} else {
				refs[i] = addr
			}
			kinds[i] = b[0] % 3
		}
		sim, err := New(h)
		if err != nil {
			t.Fatal(err)
		}
		sim.AccessAllKinded(refs, kinds)
		oracle := newComposedOracle(t, h)
		for i := range refs {
			oracle.access(refs[i], kinds[i])
		}
		got, want := sim.Results(), oracle.results()
		for i := range got.Levels {
			if got.Levels[i] != want.Levels[i] {
				t.Fatalf("%s: level %d diverges:\n fused    %+v\n composed %+v", h, i+1, got.Levels[i], want.Levels[i])
			}
		}
		if got.BackInvalidations != want.BackInvalidations || got.BackInvalDirty != want.BackInvalDirty {
			t.Fatalf("%s: back-invalidation counters diverge", h)
		}
	})
}
