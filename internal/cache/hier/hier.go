// Package hier is the fused multi-level hierarchy simulator: one Sim
// drives every level of a cache.Hierarchy over a reference stream,
// turning each level's misses and write-backs into the next level's
// references per the canonical miss-stream order defined in
// internal/cache (dirty-victim write-back, then fill, then
// write-through store).
//
// Two execution shapes live here. Non-inclusive (NINE) hierarchies
// chain MissStream filters chunk by chunk — each level is a pure stream
// transformer, which is also what lets the sweep planner share one L1
// across many candidate L2s. Inclusive and exclusive hierarchies need
// feedback (back-invalidation, line migration) and run a per-reference
// protocol loop instead.
//
// Correctness contract: per-level counters are bit-identical to what a
// lone single-level simulator of that level would produce when fed the
// level's reference stream, and a one-level Sim is bit-identical to the
// single-level simulator itself. The differential tests and
// FuzzHierarchyVsComposed hold the fused paths to composed single-level
// oracles for every content policy × write policy.
package hier

import (
	"math/bits"

	"palmsim/internal/cache"
)

// MissStream views one cache level as a stream transformer: feed it a
// chunk of (refs, kinds) and it returns the filtered miss stream — the
// references the next level down observes. The stream owns its output
// buffers and reuses them across chunks, so the returned slices are
// valid only until the next Filter call.
type MissStream struct {
	c     *cache.Cache
	refs  []uint32
	kinds []uint8
}

// NewMissStream wraps an existing level.
func NewMissStream(c *cache.Cache) *MissStream {
	return &MissStream{c: c}
}

// Filter advances the level over one chunk (kinds may be nil for an
// address-only trace) and returns the filtered miss stream, which
// always carries kinds.
func (m *MissStream) Filter(refs []uint32, kinds []uint8) ([]uint32, []uint8) {
	m.refs, m.kinds = m.c.FilterChunkKinded(refs, kinds, m.refs[:0], m.kinds[:0])
	return m.refs, m.kinds
}

// Sim simulates one hierarchy.
type Sim struct {
	h      cache.Hierarchy
	levels []*cache.Cache
	// chain holds the first len(levels)-1 levels as stream transformers
	// for the NINE chunk path.
	chain []*MissStream

	// Inclusive-protocol constants and counters.
	l1Shift        uint32 // log2(L1 line bytes)
	l2Shift        uint32 // log2(L2 line bytes), two-level protocols only
	backInval      uint64
	backInvalDirty uint64
}

// New builds a simulator for a validated hierarchy.
func New(h cache.Hierarchy) (*Sim, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{h: h}
	for _, cfg := range h.Levels {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		s.levels = append(s.levels, c)
	}
	if h.Content == cache.NonInclusive {
		for _, c := range s.levels[:len(s.levels)-1] {
			s.chain = append(s.chain, NewMissStream(c))
		}
	}
	s.l1Shift = uint32(bits.TrailingZeros32(uint32(h.Levels[0].LineBytes)))
	if len(h.Levels) > 1 {
		s.l2Shift = uint32(bits.TrailingZeros32(uint32(h.Levels[1].LineBytes)))
	}
	return s, nil
}

// Hierarchy returns the simulated hierarchy.
func (s *Sim) Hierarchy() cache.Hierarchy { return s.h }

// AccessAll performs each reference of an address-only chunk in order.
func (s *Sim) AccessAll(refs []uint32) { s.accessChunk(refs, nil) }

// AccessAllKinded performs each (reference, kind) pair in order. kinds
// must be at least as long as refs.
func (s *Sim) AccessAllKinded(refs []uint32, kinds []uint8) { s.accessChunk(refs, kinds) }

// Access performs one reference.
func (s *Sim) Access(addr uint32, kind uint8) {
	s.accessChunk([]uint32{addr}, []uint8{kind})
}

func (s *Sim) accessChunk(refs []uint32, kinds []uint8) {
	switch {
	case s.h.Content != cache.NonInclusive:
		for i, addr := range refs {
			kind := cache.KindRead
			if kinds != nil {
				kind = kinds[i]
			}
			if s.h.Content == cache.Inclusive {
				s.accessInclusive(addr, kind)
			} else {
				s.accessExclusive(addr, kind)
			}
		}
	default:
		for _, m := range s.chain {
			refs, kinds = m.Filter(refs, kinds)
		}
		last := s.levels[len(s.levels)-1]
		if kinds == nil {
			// Address-only single-level hierarchy: the same entry point
			// the single-level sweep engines use.
			last.AccessAll(refs)
		} else {
			last.AccessAllKinded(refs, kinds)
		}
	}
}

// accessInclusive runs the two-level inclusive protocol for one
// reference: the L1 access, then its miss-stream events against the L2
// in canonical order, back-invalidating L1 lines covered by every L2
// eviction. Dirty back-invalidated L1 data has no L2 home left (the
// covering line is gone), so it flushes straight to memory and is
// counted in BackInvalDirty rather than as an L2 access.
func (s *Sim) accessInclusive(addr uint32, kind uint8) {
	l1 := s.levels[0]
	ev := l1.AccessKindEv(addr, kind)
	if ev.EvictedDirty {
		s.l2Inclusive(ev.EvictedLine<<s.l1Shift, cache.KindWrite)
	}
	if !ev.Hit {
		s.l2Inclusive(addr&^(uint32(s.h.Levels[0].LineBytes)-1), cache.KindRead)
	}
	if s.h.Levels[0].Write == cache.WriteThrough && kind == cache.KindWrite {
		s.l2Inclusive(addr, cache.KindWrite)
	}
}

func (s *Sim) l2Inclusive(addr uint32, kind uint8) {
	ev := s.levels[1].AccessKindEv(addr, kind)
	if ev.Evicted {
		// Invalidate every L1 line the evicted L2 line covered.
		ratio := uint32(1) << (s.l2Shift - s.l1Shift)
		first := ev.EvictedLine << (s.l2Shift - s.l1Shift)
		for k := uint32(0); k < ratio; k++ {
			if present, dirty := s.levels[0].InvalidateLine(first + k); present {
				s.backInval++
				if dirty {
					s.backInvalDirty++
				}
			}
		}
	}
}

// accessExclusive runs the two-level exclusive protocol for one
// reference: an L1 miss probes the L2 (hit moves the line — and its
// dirty bit — up and out of the L2), and an L1 victim, clean or dirty,
// is inserted below victim-cache style. Probe precedes insert, so a
// conflict within one set sees the old resident before the new victim
// lands. Write-through L1 stores bypass the L2 entirely: by exclusion
// the L2 never holds the line, so the store's memory traffic is charged
// at the memory boundary (HierarchyResult.MemoryWriteTrafficBytes),
// not as L2 accesses.
func (s *Sim) accessExclusive(addr uint32, kind uint8) {
	l1, l2 := s.levels[0], s.levels[1]
	ev := l1.AccessKindEv(addr, kind)
	if !ev.Hit {
		if hit, dirty := l2.ProbeInvalidate(addr); hit && dirty {
			l1.MarkLineDirty(addr >> s.l1Shift)
		}
	}
	if ev.Evicted {
		// Equal line sizes (Hierarchy.Validate), so line numbers agree.
		l2.InsertLine(ev.EvictedLine, ev.EvictedDirty)
	}
}

// Results returns the per-level counters plus the hierarchy-level
// back-invalidation totals.
func (s *Sim) Results() cache.HierarchyResult {
	r := cache.HierarchyResult{
		Hierarchy:         s.h,
		BackInvalidations: s.backInval,
		BackInvalDirty:    s.backInvalDirty,
	}
	for _, c := range s.levels {
		r.Levels = append(r.Levels, c.Result())
	}
	return r
}
