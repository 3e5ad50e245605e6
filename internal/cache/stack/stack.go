// Package stack implements the single-pass all-associativity cache
// sweep: one traversal of a memory-reference trace produces exact
// per-configuration hit/miss counts for every LRU configuration of the
// paper's §4 case study, bit-identical to simulating each cache
// independently (cache.Sweep).
//
// The engine rests on the LRU inclusion property (Mattson et al.'s stack
// algorithms, specialized to set-associative caches): for a fixed line
// size and set count S, the contents of an A-way LRU cache are exactly
// the A most-recently-used distinct lines mapping to each set, for every
// A simultaneously. A reference therefore hits in the (S, A) cache if
// and only if its line sits at recency depth < A within its set. One
// "refinement" per distinct (line size, S) pair maintains each set's
// recency list truncated at the deepest associativity any configuration
// needs (8 in the paper sweep), and records a histogram of observed
// depths; the per-configuration miss count for (S, A) is then just the
// suffix sum of the histogram from depth A — computed once at the end,
// entirely off the per-reference path. The 56-configuration paper sweep
// collapses to 20 refinements, each probing a <=8-entry list instead of
// driving 56 independent caches.
//
// The refinements of one line size are advanced by one unit, a walk,
// that visits them in ascending set count and stops early. Sets are
// bit-selected, so the lines that share a line's set at 2S sets are a
// subset of those that share it at S (Hill and Smith's set-refinement
// property). Two monotone invariants follow and make the stop exact:
//
//   - A line at depth 0 (MRU) of its set at S sets is at depth 0 at
//     every larger set count. So the walk does the ordinary recency-list
//     step in each refinement where the reference is not MRU and stops
//     at the first where it is: every later refinement would record a
//     depth-0 hit and change nothing. The walk counts where it stopped,
//     and each refinement's depth-0 bucket is the number of walks that
//     stopped at it or before it.
//   - Under write-back, a front wmax of 0 at S sets (no colliding line
//     referenced since the line's last write) reads 0 at every larger
//     set count too. So a write goes on past its stop, zeroing the front
//     wmax of each later write-back refinement, and stops at the first
//     one where it already reads 0.
//
// On the paper's session traces the walk probes about 1.3 of the 10
// refinements per reference. The paper sweep is two units, one per line
// size, so a sweep spreads over at most two workers.
//
// Exactness of the depth-histogram sharing holds only for LRU, whose
// eviction order is a pure function of the reference stream and which
// satisfies the inclusion property across associativities. FIFO and
// tree-PLRU lack inclusion (Belady's anomaly), so they cannot share one
// histogram across ways — but they are still deterministic functions of
// the reference stream, so a single-pass "family" unit (family.go)
// simulates every configuration of one (policy, line size) group in
// lockstep, sharing the per-reference region/line work and an MRU
// shortcut across the group. Random depends on each cache's private PRNG
// state and falls back to direct per-config simulation (cache.Cache)
// behind the same Unit interface; OPT needs future knowledge and is
// served by the opt package via the sweep layer, never by this engine.
//
// Write policies ride along without splitting any grouping: every
// variant is write-allocate, so replacement state is kind-blind and the
// kinded chunks differ from address-only ones only in accounting. For
// LRU write-back the refinement tracks, per resident line, the maximum
// recency depth reached since the line was last written ("wmax", 0xFF =
// clean): a line is dirty in the A-way cache exactly when wmax < A, so
// crossing depth j-1 -> j with wmax < j is precisely the j-way cache's
// dirty eviction, counted once into a writeback histogram indexed by j.
package stack

import (
	"fmt"
	"sort"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// Unit is one independently advanceable simulation shard: the LRU walk
// of one line size, a family, or a direct-simulation fallback cache.
// Units are mutually independent, so a sweep engine may drive them from
// different goroutines as long as each unit observes the full trace in
// order. Nil kinds is an address-only chunk.
type Unit interface {
	AccessAllKinded(refs []uint32, kinds []uint8)
}

// refCfg ties a configuration served by a refinement back to its index
// in the caller's configuration slice.
type refCfg struct {
	index int
	cfg   cache.Config
}

// Refinement is the all-associativity state for one (line size, set
// count) geometry: per-set recency lists truncated at the deepest
// associativity any served configuration needs, plus depth histograms
// split by memory region. The walk of its line size advances it.
type Refinement struct {
	lineBytes int
	sets      int
	lineShift uint
	setMask   uint32
	depth     int      // deepest Ways over cfgs; recency lists keep this many lines
	lists     []uint32 // sets*depth entries: line number + 1, 0 = empty, MRU first
	// hist[region][d] counts references found at recency depth d >= 1
	// (region 0 RAM, 1 flash); index depth counts references not found
	// within the list at all (misses for every served configuration).
	// Depth-0 hits are where the walk stops, so its exit counters hold
	// them.
	hist [2][]uint64
	// Write-back accounting, allocated only when a served configuration
	// uses WriteBack. wmax parallels lists: per entry, the maximum
	// recency depth reached since the line was last written (0xFF =
	// clean, never written since fill). wbHist[j] counts dirty crossings
	// into depth j — exactly the j-way configuration's writebacks.
	wmax   []uint8
	wbHist []uint64
	cfgs   []refCfg
}

// LineBytes returns the line size this refinement serves.
func (r *Refinement) LineBytes() int { return r.lineBytes }

// Sets returns the set count this refinement serves.
func (r *Refinement) Sets() int { return r.sets }

// Depth returns the recency-list depth (the deepest associativity among
// the served configurations).
func (r *Refinement) Depth() int { return r.depth }

// Configs returns the configurations this refinement produces results
// for.
func (r *Refinement) Configs() []cache.Config {
	out := make([]cache.Config, len(r.cfgs))
	for i, rc := range r.cfgs {
		out[i] = rc.cfg
	}
	return out
}

// step is the ordinary recency-list step for a reference to line key
// that is not at depth 0 of its set, whose list starts at base: it
// records the depth the line was found at (or a miss), moves the line to
// the front and, under write-back, advances the wmax bounds past every
// dirty eviction the shift makes.
func (r *Refinement) step(base int, key uint32, region int, write bool) {
	depth := r.depth
	set := r.lists[base : base+depth]
	// Walk for the line or the first empty slot (entries fill from the
	// front, so a zero ends the occupied prefix).
	p := 1
	for p < depth && set[p] != key && set[p] != 0 {
		p++
	}
	bucket := depth // not resident: miss at every associativity
	pos := p
	if p == depth {
		pos = depth - 1 // full set: the LRU tail line is evicted
	} else if set[p] == key {
		bucket = p
	}
	r.hist[region][bucket]++
	if r.wmax == nil {
		for j := pos; j > 0; j-- {
			set[j] = set[j-1]
		}
		set[0] = key
		return
	}
	wm := r.wmax[base : base+depth]
	// The front entry's wmax after this access: a found line keeps its
	// bound on a read (still dirty wherever it stayed resident) and
	// resets on a write; a fresh fill is clean unless written.
	front := uint8(0xFF)
	if bucket != depth {
		front = wm[p]
	}
	if write {
		front = 0
	}
	// A full-set insert drops the LRU tail across depth-1 -> depth: the
	// depth-way configuration's eviction. Depth is at most
	// cache.MaxWays, so it fits the bound's byte below the clean mark.
	if bucket == depth && set[depth-1] != 0 && wm[depth-1] < uint8(depth) {
		r.wbHist[depth]++
	}
	// Shift entries 0..pos-1 down one depth each; every occupied entry
	// crossing j-1 -> j with wmax < j is the j-way cache's dirty
	// eviction, after which that cache holds the line clean (if at all),
	// so the bound advances to j.
	for j := pos; j > 0; j-- {
		set[j] = set[j-1]
		w := wm[j-1]
		if w < uint8(j) {
			r.wbHist[j]++
			w = uint8(j)
		}
		wm[j] = w
	}
	set[0] = key
	wm[0] = front
}

// results fills the served configurations' slots of out from the depth
// histograms, with zero[region] depth-0 hits and writes write
// references: a reference at depth d hits (S, A) iff d < A.
func (r *Refinement) results(out []cache.Result, zero [2]uint64, writes uint64) {
	for _, rc := range r.cfgs {
		res := cache.Result{Config: rc.cfg, Writes: writes}
		for d := 0; d <= r.depth; d++ {
			ram, flash := r.hist[0][d], r.hist[1][d]
			if d == 0 {
				ram, flash = zero[0], zero[1]
			}
			res.Accesses += ram + flash
			res.RAMRefs += ram
			res.FlashRefs += flash
			if d >= rc.cfg.Ways {
				res.Misses += ram + flash
				res.RAMMisses += ram
				res.FlashMisses += flash
			}
		}
		if rc.cfg.Write == cache.WriteBack {
			res.Writebacks = r.wbHist[rc.cfg.Ways]
		}
		out[rc.index] = res
	}
}

// walk is the LRU unit of one line size: its refinements in ascending
// set count, advanced by one walk per reference that stops where the
// reference is already MRU (see the package comment).
type walk struct {
	lineShift uint
	levels    []*Refinement
	// last is the previous reference's line + 1 (0 = none): a reference
	// to it is MRU at the first refinement, so its walk stops there
	// without probing.
	last uint32
	// exits[region][i] counts the walks that stopped at refinement i, the
	// first where the reference was at depth 0; index len(levels) counts
	// the walks that found it at depth 0 nowhere.
	exits  [2][]uint64
	writes uint64 // write references seen (kinded chunks only)
	track  bool   // some refinement tracks wmax
}

// AccessAllKinded advances the walk over one chunk; nil kinds is an
// address-only chunk.
func (w *walk) AccessAllKinded(refs []uint32, kinds []uint8) {
	if kinds == nil {
		w.access(refs)
		return
	}
	levels := w.levels
	last := w.last
	track := w.track
	for k, addr := range refs {
		write := cache.IsWrite(kinds[k])
		if write {
			w.writes++
		}
		// Same unsigned-wrap region test as cache.Cache.Access.
		region := 0
		if addr-bus.ROMBase < bus.ROMSize {
			region = 1
		}
		line := addr >> w.lineShift
		key := line + 1
		i := 0
		if key != last {
			last = key
			for ; i < len(levels); i++ {
				r := levels[i]
				base := int(line&r.setMask) * r.depth
				if r.lists[base] == key {
					break
				}
				r.step(base, key, region, write)
			}
		}
		w.exits[region][i]++
		if !write || !track {
			continue
		}
		// A write at depth 0 dirties the front entry of every write-back
		// refinement from the stop on, up to the first one already
		// dirty-at-front: every refinement past it is too.
		for ; i < len(levels); i++ {
			r := levels[i]
			if r.wmax == nil {
				continue
			}
			base := int(line&r.setMask) * r.depth
			if r.wmax[base] == 0 {
				break
			}
			r.wmax[base] = 0
		}
	}
	w.last = last
}

// access is the walk over an address-only chunk: every reference a
// read, so no wmax front changes.
func (w *walk) access(refs []uint32) {
	levels := w.levels
	last := w.last
	for _, addr := range refs {
		region := 0
		if addr-bus.ROMBase < bus.ROMSize {
			region = 1
		}
		line := addr >> w.lineShift
		key := line + 1
		i := 0
		if key != last {
			last = key
			for ; i < len(levels); i++ {
				r := levels[i]
				base := int(line&r.setMask) * r.depth
				if r.lists[base] == key {
					break
				}
				r.step(base, key, region, false)
			}
		}
		w.exits[region][i]++
	}
	w.last = last
}

// results fills every refinement's configurations: refinement j's
// depth-0 hits are the walks that stopped at refinements 0..j.
func (w *walk) results(out []cache.Result) {
	var zero [2]uint64
	for i, r := range w.levels {
		zero[0] += w.exits[0][i]
		zero[1] += w.exits[1][i]
		r.results(out, zero, w.writes)
	}
}

// fallback is a configuration simulated directly.
type fallback struct {
	index int
	c     *cache.Cache
}

// Engine partitions a configuration set into per-line-size LRU walks
// over refinements, single-pass families (FIFO, PLRU), and
// direct-simulation fallbacks (Random) and assembles results in the
// original configuration order. OPT configurations are rejected: they
// need whole-trace annotation, which the sweep layer provides through
// the opt package.
type Engine struct {
	walks       []*walk
	refinements []*Refinement
	families    []*Family
	fallbacks   []fallback
	nconfigs    int
}

// New validates the configurations and builds the refinement tree:
// LRU configurations group by line size, then by set count, each
// group's recency depth being its deepest associativity, and each line
// size's refinements form one walk; FIFO and PLRU configurations group
// into per-(policy, line size) families.
func New(cfgs []cache.Config) (*Engine, error) {
	e := &Engine{nconfigs: len(cfgs)}
	type geom struct{ line, sets int }
	byGeom := map[geom]*Refinement{}
	type famKey struct {
		policy cache.Policy
		line   int
	}
	byFam := map[famKey]*Family{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		switch cfg.Policy {
		case cache.LRU:
			g := geom{line: cfg.LineBytes, sets: cfg.Sets()}
			r := byGeom[g]
			if r == nil {
				r = &Refinement{
					lineBytes: cfg.LineBytes,
					sets:      cfg.Sets(),
					lineShift: cfg.IndexShift(),
					setMask:   uint32(cfg.Sets() - 1),
				}
				byGeom[g] = r
				e.refinements = append(e.refinements, r)
			}
			if cfg.Ways > r.depth {
				r.depth = cfg.Ways
			}
			r.cfgs = append(r.cfgs, refCfg{index: i, cfg: cfg})
		case cache.FIFO, cache.PLRU:
			k := famKey{policy: cfg.Policy, line: cfg.LineBytes}
			f := byFam[k]
			if f == nil {
				f = &Family{
					policy:     cfg.Policy,
					lineBytes:  cfg.LineBytes,
					lineShift:  cfg.IndexShift(),
					minSetMask: ^uint32(0),
				}
				byFam[k] = f
				e.families = append(e.families, f)
			}
			v := newFamilyVariant(i, cfg)
			if v.setMask < f.minSetMask {
				f.minSetMask = v.setMask
			}
			f.variants = append(f.variants, v)
			if v.dirty != nil {
				f.hasDirty = true
			}
		case cache.OPT:
			return nil, fmt.Errorf("stack: %v needs whole-trace annotation; the sweep layer serves OPT through the opt package", cfg)
		default: // Random: private PRNG state, simulated directly.
			c, err := cache.New(cfg)
			if err != nil {
				return nil, err
			}
			e.fallbacks = append(e.fallbacks, fallback{index: i, c: c})
		}
	}
	// Deterministic unit order regardless of map iteration; a walk
	// visits its refinements in ascending set count.
	sort.Slice(e.refinements, func(i, j int) bool {
		a, b := e.refinements[i], e.refinements[j]
		if a.lineBytes != b.lineBytes {
			return a.lineBytes < b.lineBytes
		}
		return a.sets < b.sets
	})
	sort.Slice(e.families, func(i, j int) bool {
		a, b := e.families[i], e.families[j]
		if a.policy != b.policy {
			return a.policy < b.policy
		}
		return a.lineBytes < b.lineBytes
	})
	var w *walk
	for _, r := range e.refinements {
		r.lists = make([]uint32, r.sets*r.depth)
		r.hist = [2][]uint64{make([]uint64, r.depth+1), make([]uint64, r.depth+1)}
		for _, rc := range r.cfgs {
			if rc.cfg.Write == cache.WriteBack {
				r.wmax = make([]uint8, r.sets*r.depth)
				for j := range r.wmax {
					r.wmax[j] = 0xFF
				}
				r.wbHist = make([]uint64, r.depth+1)
				break
			}
		}
		if w == nil || w.lineShift != r.lineShift {
			w = &walk{lineShift: r.lineShift}
			e.walks = append(e.walks, w)
		}
		w.levels = append(w.levels, r)
		w.track = w.track || r.wmax != nil
	}
	for _, w := range e.walks {
		w.exits = [2][]uint64{make([]uint64, len(w.levels)+1), make([]uint64, len(w.levels)+1)}
	}
	return e, nil
}

// Units returns the engine's independently advanceable shards: one
// walk per LRU line size first, then families, then direct-simulation
// fallbacks.
func (e *Engine) Units() []Unit {
	units := make([]Unit, 0, len(e.walks)+len(e.families)+len(e.fallbacks))
	for _, w := range e.walks {
		units = append(units, w)
	}
	for _, f := range e.families {
		units = append(units, f)
	}
	for _, f := range e.fallbacks {
		units = append(units, f.c)
	}
	return units
}

// Refinements exposes the refinement tree, by line size then set count
// (for diagnostics and the grouping-invariant tests).
func (e *Engine) Refinements() []*Refinement { return e.refinements }

// Families exposes the FIFO/PLRU family units.
func (e *Engine) Families() []*Family { return e.families }

// FamilyConfigs returns how many configurations are served by
// single-pass families.
func (e *Engine) FamilyConfigs() int {
	n := 0
	for _, f := range e.families {
		n += len(f.variants)
	}
	return n
}

// FallbackConfigs returns how many configurations are simulated directly
// rather than through a refinement or family.
func (e *Engine) FallbackConfigs() int { return len(e.fallbacks) }

// Results assembles per-configuration results in the order the
// configurations were passed to New.
func (e *Engine) Results() []cache.Result {
	out := make([]cache.Result, e.nconfigs)
	for _, w := range e.walks {
		w.results(out)
	}
	for _, f := range e.families {
		f.results(out)
	}
	for _, f := range e.fallbacks {
		out[f.index] = f.c.Result()
	}
	return out
}

// Sweep runs a whole trace through a fresh engine on one goroutine — the
// single-pass counterpart of cache.Sweep, and the reference entry point
// the differential tests compare against it.
func Sweep(cfgs []cache.Config, trace []uint32) ([]cache.Result, error) {
	return SweepKinded(cfgs, trace, nil)
}

// SweepKinded is the kinded counterpart of Sweep: every unit sees the
// (reference, kind) stream, producing write and writeback accounting on
// top of the identical hit/miss counts.
func SweepKinded(cfgs []cache.Config, trace []uint32, kinds []uint8) ([]cache.Result, error) {
	e, err := New(cfgs)
	if err != nil {
		return nil, err
	}
	for _, u := range e.Units() {
		u.AccessAllKinded(trace, kinds)
	}
	return e.Results(), nil
}
