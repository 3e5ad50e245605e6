// Multi-level cache hierarchies. The paper's memory-system study stops
// at a single cache level; this file adds the configuration vocabulary
// (Hierarchy: an ordered list of per-level Configs plus a content
// policy) and the per-level access primitives the fused simulator
// (internal/cache/hier) and the sweep's shared-L1 planner
// (internal/sweep) are built from.
//
// The central abstraction is the *filtered miss stream*: each level's
// misses and writebacks, in trace order, become the reference stream of
// the level below it. The stream's composition is fixed here, once, and
// every implementation — the chunked FilterChunkKinded fast path, the
// fused per-reference loop, and the test oracles — must emit exactly
// the same sequence:
//
//  1. a dirty victim eviction emits (victim line address, KindWrite)
//     — the write-back leaving this level;
//  2. a miss emits (line-aligned address, KindRead) — the fill request;
//  3. a write under a write-through policy emits (address, KindWrite)
//     — the store propagating down.
//
// All three may fire for one reference, in that order. Under
// WriteIgnore only fills exist; under WriteThrough fills and stores;
// under WriteBack fills and dirty-victim writebacks.
package cache

import (
	"fmt"
	"strings"

	"palmsim/internal/bus"
)

// ContentPolicy selects how a level's contents relate to the level
// above it.
type ContentPolicy uint8

const (
	// NonInclusive (NINE: non-inclusive, non-exclusive) is the zero
	// value and the default: levels are populated independently by the
	// filtered miss stream, with no cross-level enforcement. This is
	// the only policy whose lower levels are a pure function of the
	// level above's configuration and the trace, which is what makes
	// the sweep's shared-L1 fan-out legal.
	NonInclusive ContentPolicy = iota
	// Inclusive guarantees every upper-level line is also resident
	// below: evicting a lower-level line back-invalidates the upper
	// lines it covers. Back-invalidation feeds lower-level state back
	// into the upper level, so inclusive hierarchies are simulated
	// fused, never shared.
	Inclusive
	// Exclusive guarantees a line lives in exactly one level: an
	// upper-level miss that hits below *moves* the line up, and upper
	// victims are inserted below (victim-cache style).
	Exclusive
)

func (p ContentPolicy) String() string {
	switch p {
	case NonInclusive:
		return "nine"
	case Inclusive:
		return "inclusive"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("ContentPolicy(%d)", uint8(p))
	}
}

// ParseContentPolicy converts a case-insensitive content-policy name.
func ParseContentPolicy(s string) (ContentPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "nine", "non-inclusive", "noninclusive":
		return NonInclusive, nil
	case "inclusive", "incl":
		return Inclusive, nil
	case "exclusive", "excl":
		return Exclusive, nil
	}
	return 0, fmt.Errorf("cache: unknown content policy %q (want nine, inclusive or exclusive)", s)
}

// Hierarchy is an ordered list of cache levels — Levels[0] is closest
// to the CPU — plus the content policy between adjacent levels. A
// one-level hierarchy is exactly the single-level simulator.
type Hierarchy struct {
	Levels  []Config
	Content ContentPolicy
}

func (h Hierarchy) String() string {
	parts := make([]string, len(h.Levels))
	for i, cfg := range h.Levels {
		parts[i] = cfg.String()
	}
	s := strings.Join(parts, " + ")
	if len(h.Levels) > 1 && h.Content != NonInclusive {
		s += " (" + h.Content.String() + ")"
	}
	return s
}

// Validate checks the hierarchy for coherence. The multi-level
// constraints exist so the miss-stream semantics stay well defined:
// line sizes must not shrink going down (a line-aligned fill must land
// in one lower line, and back-invalidation must cover a whole number of
// upper lines); OPT needs future knowledge of a *filtered* stream that
// does not exist until the upper level has run, so it is single-level
// only; inclusive and exclusive are pairwise protocols, bounded to two
// levels; and an exclusive pair moves lines (and their dirty bits)
// between levels, which requires equal line sizes and — when the upper
// level generates dirty victims — dirty tracking below.
func (h Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("cache: hierarchy has no levels")
	}
	if h.Content > Exclusive {
		return fmt.Errorf("cache: unknown content policy %d", h.Content)
	}
	for i, cfg := range h.Levels {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("cache: hierarchy level %d: %w", i+1, err)
		}
	}
	if h.Content != NonInclusive && len(h.Levels) != 2 {
		return fmt.Errorf("cache: %s hierarchies support exactly two levels, got %d", h.Content, len(h.Levels))
	}
	if len(h.Levels) == 1 {
		return nil
	}
	for i, cfg := range h.Levels {
		if cfg.Policy == OPT {
			return fmt.Errorf("cache: hierarchy level %d: OPT requires future knowledge of the filtered miss stream; multi-level hierarchies support LRU, FIFO, Random and PLRU", i+1)
		}
		if i > 0 && cfg.LineBytes < h.Levels[i-1].LineBytes {
			return fmt.Errorf("cache: hierarchy level %d line size %dB is smaller than level %d's %dB",
				i+1, cfg.LineBytes, i, h.Levels[i-1].LineBytes)
		}
	}
	if h.Content == Exclusive {
		l1, l2 := h.Levels[0], h.Levels[1]
		if l1.LineBytes != l2.LineBytes {
			return fmt.Errorf("cache: exclusive hierarchy moves lines between levels and needs equal line sizes, got %dB and %dB", l1.LineBytes, l2.LineBytes)
		}
		if l1.Write == WriteBack && l2.Write != WriteBack {
			return fmt.Errorf("cache: exclusive hierarchy with a write-back L1 needs a write-back L2 to hold dirty victims")
		}
	}
	return nil
}

// L1 returns the first (CPU-side) level's configuration.
func (h Hierarchy) L1() Config { return h.Levels[0] }

// Last returns the last (memory-side) level's configuration.
func (h Hierarchy) Last() Config { return h.Levels[len(h.Levels)-1] }

// Single wraps one configuration as a one-level hierarchy.
func Single(cfg Config) Hierarchy { return Hierarchy{Levels: []Config{cfg}} }

// NeedsKinds reports whether simulating the hierarchy requires
// per-reference access kinds: any level with a write policy does, and
// in a multi-level hierarchy the upper level's write policy shapes the
// stream the lower level sees even when only the upper one has it.
func (h Hierarchy) NeedsKinds() bool {
	for _, cfg := range h.Levels {
		if cfg.Write != WriteIgnore {
			return true
		}
	}
	return false
}

// LevelHitCycles is the hit latency of level i (0-based): 1 cycle for
// the L1 (the paper's T_hit), one extra cycle per level below it — a
// deliberately simple staircase in the spirit of §4.2's round numbers.
func LevelHitCycles(i int) float64 { return float64(i) + 1 }

// HierarchyResult aggregates one hierarchy simulation: per-level
// single-level Results (bit-identical to what a lone simulator of that
// level would report for its stream) plus the cross-level counters that
// have no single-level home.
type HierarchyResult struct {
	Hierarchy Hierarchy
	Levels    []Result

	// BackInvalidations counts upper-level lines invalidated by
	// lower-level evictions under the Inclusive content policy.
	BackInvalidations uint64
	// BackInvalDirty counts back-invalidated lines that were dirty;
	// their data is flushed directly to memory (the lower-level line is
	// gone), so they appear in memory write traffic, not as lower-level
	// accesses.
	BackInvalDirty uint64
}

// L1 returns the first level's counters.
func (r HierarchyResult) L1() Result { return r.Levels[0] }

// Last returns the last level's counters.
func (r HierarchyResult) Last() Result { return r.Levels[len(r.Levels)-1] }

// MissRate returns the global miss rate: the fraction of CPU references
// that missed every level. The last level's misses are exactly the
// fills that reached memory.
func (r HierarchyResult) MissRate() float64 {
	l1 := r.L1()
	if l1.Accesses == 0 {
		return 0
	}
	return float64(r.Last().Misses) / float64(l1.Accesses)
}

// MemoryWriteTrafficBytes returns the write traffic that actually
// reaches memory. Intermediate-level write traffic is absorbed by the
// next level down (an L1 write-back victim is an L2 write access, not a
// memory transaction — it is charged exactly once, at the boundary it
// crosses); only the last level's write policy, inclusive
// back-invalidation flushes, and an exclusive L1's write-through stores
// (which bypass an L2 that by construction does not hold the line) hit
// the memory bus.
func (r HierarchyResult) MemoryWriteTrafficBytes() uint64 {
	bytes := r.Last().WriteTrafficBytes()
	bytes += r.BackInvalDirty * uint64(r.Hierarchy.L1().LineBytes)
	if len(r.Levels) > 1 && r.Hierarchy.Content == Exclusive && r.Hierarchy.L1().Write == WriteThrough {
		bytes += r.L1().Writes * 2
	}
	return bytes
}

// TeffExact computes the hierarchy's average effective access time from
// exact per-level counts: every level-i access pays LevelHitCycles(i),
// and the fills that fall out of the last level pay the paper's
// per-region miss penalties. For a one-level hierarchy this is exactly
// Result.TeffExact.
func (r HierarchyResult) TeffExact() float64 {
	if len(r.Levels) == 1 {
		// Delegate so a one-level hierarchy is bit-identical to the
		// single-level metric, not merely algebraically equal.
		return r.Levels[0].TeffExact()
	}
	l1 := r.L1()
	if l1.Accesses == 0 {
		return 0
	}
	cycles := 0.0
	for i, lr := range r.Levels {
		cycles += float64(lr.Accesses) * LevelHitCycles(i)
	}
	last := r.Last()
	cycles += float64(last.RAMMisses)*TRAMMiss + float64(last.FlashMisses)*TFlashMiss
	return cycles / float64(l1.Accesses)
}

// TeffWriteAware extends TeffExact with the memory write traffic's bus
// occupancy, exactly as Result.TeffWriteAware does for one level: each
// 16-bit transfer of MemoryWriteTrafficBytes holds the bus for one
// RAM-class cycle, amortized over all CPU references.
func (r HierarchyResult) TeffWriteAware() float64 {
	l1 := r.L1()
	if l1.Accesses == 0 {
		return 0
	}
	return r.TeffExact() + float64(r.MemoryWriteTrafficBytes()/2)*TRAMMiss/float64(l1.Accesses)
}

// AccessEvent reports the side effects of one reference, for callers
// that compose levels: whether it hit, and which valid line (if any)
// the fill displaced.
type AccessEvent struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced by the fill
	EvictedLine  uint32 // line number (address >> log2(LineBytes)) of the displaced line
	EvictedDirty bool   // the displaced line was dirty (WriteBack only)
}

// AccessKindEv is the kinded access step: it performs one reference,
// advancing the counters AccessKind reports, and additionally reports what
// happened, so a hierarchy can turn misses and dirty victims into the
// next level's reference stream.
func (c *Cache) AccessKindEv(addr uint32, kind uint8) AccessEvent {
	write := kind == KindWrite
	if write {
		c.res.Writes++
	}
	isFlash := addr-bus.ROMBase < bus.ROMSize
	c.res.Accesses++
	if isFlash {
		c.res.FlashRefs++
	} else {
		c.res.RAMRefs++
	}

	line := addr >> c.lineShift
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1

	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			switch c.cfg.Policy {
			case LRU:
				c.promote(base, w)
			case PLRU:
				c.plru[si] = PLRUTouch(c.plru[si], c.ways, w)
			}
			if write && c.dirty != nil {
				c.dirty[base+w] = true
			}
			return AccessEvent{Hit: true}
		}
	}

	c.res.Misses++
	if isFlash {
		c.res.FlashMisses++
	} else {
		c.res.RAMMisses++
	}
	victim := c.victim(base, si)
	var ev AccessEvent
	if old := set[victim]; old != 0 {
		ev.Evicted = true
		ev.EvictedLine = old - 1
		ev.EvictedDirty = c.dirty != nil && c.dirty[base+victim]
	}
	if c.dirty != nil {
		if ev.EvictedDirty {
			c.res.Writebacks++
		}
		c.dirty[base+victim] = write
	}
	set[victim] = key
	if c.cfg.Policy == PLRU {
		c.plru[si] = PLRUTouch(c.plru[si], c.ways, victim)
	} else {
		c.promote(base, victim)
	}
	return ev
}

// FilterChunkKinded advances the cache over one (refs, kinds) chunk and
// appends the filtered miss stream — dirty-victim writebacks, then
// fills, then write-through stores, per reference, in the canonical
// order documented at the top of this file — to frefs/fkinds, returning
// the grown slices. kinds may be nil for an address-only trace (no
// reference is a write). This is the sweep's shared-L1 hot path: the L1
// runs once per chunk and the output feeds every candidate next level.
func (c *Cache) FilterChunkKinded(refs []uint32, kinds []uint8, frefs []uint32, fkinds []uint8) ([]uint32, []uint8) {
	lineMask := uint32(c.cfg.LineBytes - 1)
	wt := c.cfg.Write == WriteThrough
	for i, addr := range refs {
		kind := KindRead
		if kinds != nil {
			kind = kinds[i]
		}
		ev := c.AccessKindEv(addr, kind)
		if ev.EvictedDirty {
			frefs = append(frefs, ev.EvictedLine<<c.lineShift)
			fkinds = append(fkinds, KindWrite)
		}
		if !ev.Hit {
			frefs = append(frefs, addr&^lineMask)
			fkinds = append(fkinds, KindRead)
		}
		if wt && kind == KindWrite {
			frefs = append(frefs, addr)
			fkinds = append(fkinds, KindWrite)
		}
	}
	return frefs, fkinds
}

// InvalidateLine removes the given line (line number, address >>
// log2(LineBytes)) if present, reporting whether it was present and whether
// it was dirty. No counters advance — invalidation is a hierarchy
// protocol action, not a CPU reference; the caller accounts for it.
func (c *Cache) InvalidateLine(line uint32) (present, dirty bool) {
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			set[w] = 0
			if c.dirty != nil {
				dirty = c.dirty[base+w]
				c.dirty[base+w] = false
			}
			return true, dirty
		}
	}
	return false, false
}

// ProbeInvalidate performs one exclusive-level lookup for the line
// containing addr: the access and its hit/miss are counted normally (a
// probe is this level's reference stream), but a hit removes the line —
// it is moving to the level above — and reports whether it was dirty,
// and a miss allocates nothing.
func (c *Cache) ProbeInvalidate(addr uint32) (hit, dirty bool) {
	isFlash := addr-bus.ROMBase < bus.ROMSize
	c.res.Accesses++
	if isFlash {
		c.res.FlashRefs++
	} else {
		c.res.RAMRefs++
	}
	line := addr >> c.lineShift
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			set[w] = 0
			if c.dirty != nil {
				dirty = c.dirty[base+w]
				c.dirty[base+w] = false
			}
			return true, dirty
		}
	}
	c.res.Misses++
	if isFlash {
		c.res.FlashMisses++
	} else {
		c.res.RAMMisses++
	}
	return false, false
}

// InsertLine allocates the given line (line number in this cache's
// numbering — exclusive pairs have equal line sizes) as most-recently
// used, as an exclusive level accepting a victim from above. The insert
// is not a CPU access, so Accesses/Misses do not move; displacing a
// dirty resident line counts one Writeback (that data leaves for
// memory). If the line is somehow already resident it is refreshed in
// place.
func (c *Cache) InsertLine(line uint32, dirty bool) {
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			if c.dirty != nil && dirty {
				c.dirty[base+w] = true
			}
			if c.cfg.Policy == PLRU {
				c.plru[si] = PLRUTouch(c.plru[si], c.ways, w)
			} else {
				c.promote(base, w)
			}
			return
		}
	}
	victim := c.victim(base, si)
	if c.dirty != nil {
		if set[victim] != 0 && c.dirty[base+victim] {
			c.res.Writebacks++
		}
		c.dirty[base+victim] = dirty
	}
	set[victim] = key
	if c.cfg.Policy == PLRU {
		c.plru[si] = PLRUTouch(c.plru[si], c.ways, victim)
	} else {
		c.promote(base, victim)
	}
}

// MarkLineDirty sets the dirty bit of the given resident line, for an
// exclusive move that carries dirty data upward. A no-op when the line
// is absent or the cache tracks no dirty state.
func (c *Cache) MarkLineDirty(line uint32) {
	if c.dirty == nil {
		return
	}
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			c.dirty[base+w] = true
			return
		}
	}
}

// Contents returns the resident line numbers in ascending order — test
// support for the inclusion/exclusion invariants.
func (c *Cache) Contents() []uint32 {
	var out []uint32
	for _, v := range c.lines {
		if v != 0 {
			out = append(out, v-1)
		}
	}
	sortU32(out)
	return out
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }
