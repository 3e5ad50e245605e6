// Single-pass FIFO and tree-PLRU evaluation. Neither policy satisfies
// the LRU inclusion property, so no depth histogram can be shared
// across associativities — but both are deterministic functions of the
// reference stream, so one Family unit simulates every configuration of
// a (policy, line size) group over a single pass in two stages:
//
//  1. A filter pass classifies each reference once (region, line,
//     write), accumulates the counters that are identical across
//     variants (accesses, RAM/flash refs, writes) at the family level,
//     and drops references that are provably hits-with-no-state-change
//     in every variant:
//
//     - a reference repeating the previous reference's line. Every
//     variant is write-allocate, so after any reference to line L,
//     L is resident in every variant; a FIFO hit changes no
//     replacement state and a PLRU re-touch is idempotent.
//     - an A-B-A alternation (the dominant fetch/data interleave
//     pattern) when A and B map to different sets in EVERY variant,
//     i.e. their line numbers differ inside the family's minimum
//     set mask. B's activity then cannot evict A or touch A's PLRU
//     tree, so the return to A is a hit with idempotent state
//     everywhere.
//
//     Surviving references are packed into a record buffer: line number
//     plus flash/write flags. Each write-back variant keeps two slot
//     registers, the landing slots of the last two distinct lines (the
//     filter's last and last2), and every probe record names the
//     register it fills. An A-B-A shortcut swaps last and last2, so the
//     filter flips its current register (carried across chunks) and
//     emits nothing. A shortcut write, same-line or A-B-A, emits a
//     marker naming the current register: in every write-back variant
//     the repeated line sits exactly in the slot that register holds.
//     Only dirty bits read the registers, so a family without them
//     neither flips nor fills one.
//
//  2. Each variant then consumes the whole record buffer sequentially,
//     so its lines/rr/plru arrays stay hot in cache instead of being
//     re-fetched per reference — the loop order that makes the family
//     several times faster than per-configuration direct simulation.
//
// FIFO eviction is a per-set round-robin insertion pointer, bit-exact
// with the direct simulator's first-invalid-then-oldest-rank rule:
// fills during warming land in way order (so the pointer always names
// the first invalid way), and a full set replaces ways in insertion
// order, which is exactly the rotating pointer. PLRU shares the
// cache.PLRUTouch/PLRUVictim tree primitives with the direct simulator,
// so the two cannot drift.
package stack

import (
	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// Record layout for the stage-1 buffer: line number in the low 32 bits,
// flags above.
const (
	recFlash uint64 = 1 << 32          // reference is ROM/flash-side
	recWrite uint64 = 1 << 33          // reference is a write
	recMark  uint64 = 1 << 34          // shortcut write: dirty the named register's slot
	recReg1  uint64 = 1 << recRegShift // the record names slot register 1, else 0

	recRegShift = 35
)

// familyVariant is one configuration's state within a Family.
type familyVariant struct {
	index   int // position in the engine's result slice
	cfg     cache.Config
	setMask uint32
	ways    int
	lines   []uint32 // line number + 1; 0 = invalid
	rr      []uint8  // FIFO: per-set round-robin insertion pointer
	plru    []uint8  // PLRU: per-set tree bits
	dirty   []bool   // WriteBack: per-line dirty bits
	// slot holds the two slot registers: the lines indices where the
	// filter's last two distinct lines landed (kept only with dirty).
	slot [2]int32
	res  cache.Result
}

// Family simulates every FIFO or PLRU configuration of one line size in
// lockstep.
type Family struct {
	policy    cache.Policy
	lineBytes int
	lineShift uint
	// last and last2 are the two most recent distinct line keys
	// (line+1; 0 = none) feeding the stage-1 shortcuts; reg names the
	// slot register holding last's landing spot (0 or recReg1), and
	// last2's is the other. It stays 0 unless hasDirty.
	last, last2 uint32
	reg         uint64
	// minSetMask is the smallest variant set mask: two lines differing
	// inside it map to different sets in every variant.
	minSetMask uint32
	// Family-level counters, identical for every variant: total
	// references by region and total writes. Variants only count what
	// differs between them — misses and writebacks.
	totRAM, totFlash, totWrites uint64
	buf                         []uint64 // stage-1 record buffer, reused across chunks
	variants                    []*familyVariant
	hasDirty                    bool // some variant tracks dirty bits
}

// Policy returns the replacement policy every member shares.
func (f *Family) Policy() cache.Policy { return f.policy }

// LineBytes returns the line size every member shares.
func (f *Family) LineBytes() int { return f.lineBytes }

// Configs returns the number of configurations the family serves.
func (f *Family) Configs() int { return len(f.variants) }

// AccessAll advances every variant over the chunk.
func (f *Family) AccessAll(refs []uint32) {
	buf := f.buf[:0]
	for _, addr := range refs {
		isFlash := addr-bus.ROMBase < bus.ROMSize
		if isFlash {
			f.totFlash++
		} else {
			f.totRAM++
		}
		line := addr >> f.lineShift
		key := line + 1
		if key == f.last {
			continue
		}
		// An A-B-A return and a new line both swap the registers' roles:
		// A's slot is already in last2's register, and a new line's
		// record overwrites last2's.
		aba := key == f.last2 && (line^(f.last-1))&f.minSetMask != 0
		f.last2, f.last = f.last, key
		if f.hasDirty {
			f.reg ^= recReg1
		}
		if aba {
			continue
		}
		rec := uint64(line) | f.reg
		if isFlash {
			rec |= recFlash
		}
		buf = append(buf, rec)
	}
	f.buf = buf
	for _, v := range f.variants {
		v.run(buf)
	}
}

// AccessAllKinded advances every variant over a kinded chunk; nil kinds
// is an address-only chunk.
func (f *Family) AccessAllKinded(refs []uint32, kinds []uint8) {
	if kinds == nil {
		f.AccessAll(refs)
		return
	}
	buf := f.buf[:0]
	hasDirty := f.hasDirty
	for i, addr := range refs {
		write := cache.IsWrite(kinds[i])
		if write {
			f.totWrites++
		}
		isFlash := addr-bus.ROMBase < bus.ROMSize
		if isFlash {
			f.totFlash++
		} else {
			f.totRAM++
		}
		line := addr >> f.lineShift
		key := line + 1
		if key != f.last {
			aba := key == f.last2 && (line^(f.last-1))&f.minSetMask != 0
			f.last2, f.last = f.last, key
			if hasDirty {
				f.reg ^= recReg1
			}
			if !aba {
				rec := uint64(line) | f.reg
				if isFlash {
					rec |= recFlash
				}
				if write {
					rec |= recWrite
				}
				buf = append(buf, rec)
				continue
			}
		}
		// A same-line or A-B-A shortcut: the line is now last, and reg
		// names the register holding its slot.
		if write && hasDirty {
			buf = append(buf, recMark|f.reg)
		}
	}
	f.buf = buf
	for _, v := range f.variants {
		v.run(buf)
	}
}

// run replays the filtered record buffer through one variant. Only
// misses and writebacks are counted here; everything identical across
// variants was already accumulated by the filter pass.
func (v *familyVariant) run(buf []uint64) {
	lines := v.lines
	mask := v.setMask
	ways := v.ways
	dirty := v.dirty
	for _, rec := range buf {
		if rec&recMark != 0 {
			if dirty != nil {
				dirty[v.slot[rec>>recRegShift&1]] = true
			}
			continue
		}
		line := uint32(rec)
		key := line + 1
		si := int(line & mask)
		base := si * ways
		set := lines[base : base+ways]
		hit := false
		for w := range set {
			if set[w] == key {
				if v.plru != nil {
					v.plru[si] = cache.PLRUTouch(v.plru[si], ways, w)
				}
				if dirty != nil {
					v.slot[rec>>recRegShift&1] = int32(base + w)
					if rec&recWrite != 0 {
						dirty[base+w] = true
					}
				}
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		v.res.Misses++
		if rec&recFlash != 0 {
			v.res.FlashMisses++
		} else {
			v.res.RAMMisses++
		}
		var vic int
		if v.rr != nil {
			// FIFO: the rotating pointer names the first invalid way during
			// warming and the oldest-filled way thereafter.
			vic = int(v.rr[si])
			v.rr[si] = uint8((vic + 1) & (ways - 1))
		} else {
			vic = -1
			for w := range set {
				if set[w] == 0 {
					vic = w
					break
				}
			}
			if vic < 0 {
				vic = cache.PLRUVictim(v.plru[si], ways)
			}
		}
		if dirty != nil {
			if set[vic] != 0 && dirty[base+vic] {
				v.res.Writebacks++
			}
			dirty[base+vic] = rec&recWrite != 0
			v.slot[rec>>recRegShift&1] = int32(base + vic)
		}
		set[vic] = key
		if v.plru != nil {
			v.plru[si] = cache.PLRUTouch(v.plru[si], ways, vic)
		}
	}
}

// results composes each variant's miss counters with the family-level
// totals and fills the output slots.
func (f *Family) results(out []cache.Result) {
	total := f.totRAM + f.totFlash
	for _, v := range f.variants {
		res := v.res
		res.Accesses = total
		res.RAMRefs = f.totRAM
		res.FlashRefs = f.totFlash
		res.Writes = f.totWrites
		out[v.index] = res
	}
}

// newFamilyVariant builds one member's state.
func newFamilyVariant(index int, cfg cache.Config) *familyVariant {
	sets := cfg.Sets()
	v := &familyVariant{
		index:   index,
		cfg:     cfg,
		setMask: uint32(sets - 1),
		ways:    cfg.Ways,
		lines:   make([]uint32, sets*cfg.Ways),
	}
	switch cfg.Policy {
	case cache.FIFO:
		v.rr = make([]uint8, sets)
	case cache.PLRU:
		v.plru = make([]uint8, sets)
	}
	if cfg.Write == cache.WriteBack {
		v.dirty = make([]bool, sets*cfg.Ways)
	}
	v.res.Config = cfg
	return v
}
