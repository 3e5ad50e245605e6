// Family is the single-pass OPT sweep engine: every configuration
// sharing a line size advances in lockstep over one pass of the trace,
// sharing the region classification, line extraction, and the
// annotation lookup per reference. It is an independent implementation
// from DirectCache on purpose — the differential suite holds the two
// against each other bit-for-bit.
//
// Like the stack families, each chunk is processed in two stages. A
// filter pass classifies every reference once, accumulates the counters
// that are identical across variants (accesses, region refs, writes) at
// the family level, and collapses runs of consecutive references to the
// same line into one record: only the last reference of a run can
// change state (its next-use value overwrites the slot either way), the
// run's region is constant (a line cannot straddle the ROM boundary),
// and its write flags merge — a write anywhere in the run leaves the
// slot dirty. Each variant then replays the packed record buffer
// sequentially, keeping its line/next-use arrays hot in cache.
package opt

import (
	"fmt"
	"sort"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// Record flags for the stage-1 buffer. The record itself packs the line
// number in the low 32 bits and the next-use index in the high 32; the
// flags ride in a parallel byte buffer.
const (
	recFlash uint8 = 1 << 0 // reference is ROM/flash-side
	recWrite uint8 = 1 << 1 // reference is a write
)

// variant is one configuration's state within a Family.
type variant struct {
	index   int // position in the engine's result slice
	cfg     cache.Config
	setMask uint32
	ways    int
	lines   []uint32
	nu      []uint32
	dirty   []bool
	res     cache.Result
}

// Family simulates every OPT configuration of one line size in a single
// forward pass.
type Family struct {
	lineBytes int
	lineShift uint
	ann       *Annotation
	pos       uint32 // global trace position of the next reference
	// Family-level counters, identical for every variant; variants only
	// accumulate misses and writebacks.
	totRAM, totFlash, totWrites uint64
	buf                         []uint64 // stage-1 records, reused across chunks
	fbuf                        []uint8  // per-record flags
	variants                    []*variant
}

// LineBytes returns the line size every member configuration shares.
func (f *Family) LineBytes() int { return f.lineBytes }

// Configs returns the number of configurations the family serves.
func (f *Family) Configs() int { return len(f.variants) }

// fill runs the stage-1 filter over a chunk: classify each reference,
// accumulate family-level counters, and collapse same-line runs. kinds
// may be nil.
func (f *Family) fill(refs []uint32, kinds []uint8) {
	buf, fbuf := f.buf[:0], f.fbuf[:0]
	next := f.ann.Next
	for i, addr := range refs {
		nextUse := next[f.pos]
		f.pos++
		var flags uint8
		if addr-bus.ROMBase < bus.ROMSize {
			f.totFlash++
			flags = recFlash
		} else {
			f.totRAM++
		}
		if kinds != nil && cache.IsWrite(kinds[i]) {
			f.totWrites++
			flags |= recWrite
		}
		line := addr >> f.lineShift
		if n := len(buf); n > 0 && uint32(buf[n-1]) == line {
			// Same line as the previous record: only the final next-use
			// survives, and a write anywhere in the run dirties the slot.
			buf[n-1] = uint64(line) | uint64(nextUse)<<32
			fbuf[n-1] |= flags & recWrite
			continue
		}
		buf = append(buf, uint64(line)|uint64(nextUse)<<32)
		fbuf = append(fbuf, flags)
	}
	f.buf, f.fbuf = buf, fbuf
}

// AccessAll advances every variant over the chunk.
func (f *Family) AccessAll(refs []uint32) { f.AccessAllKinded(refs, nil) }

// AccessAllKinded advances every variant over a kinded chunk; nil kinds
// is an address-only chunk.
func (f *Family) AccessAllKinded(refs []uint32, kinds []uint8) {
	f.fill(refs, kinds)
	for _, v := range f.variants {
		v.run(f.buf, f.fbuf)
	}
}

// run replays the filtered record buffer through one variant. Only
// misses and writebacks are counted here; everything identical across
// variants was already accumulated by the filter pass.
func (v *variant) run(buf []uint64, fbuf []uint8) {
	lines := v.lines
	mask := v.setMask
	ways := v.ways
	for ri, rec := range buf {
		line := uint32(rec)
		nextUse := uint32(rec >> 32)
		flags := fbuf[ri]
		base := int(line&mask) * ways
		key := line + 1
		set := lines[base : base+ways]
		hit := false
		for w := range set {
			if set[w] == key {
				v.nu[base+w] = nextUse
				if v.dirty != nil && flags&recWrite != 0 {
					v.dirty[base+w] = true
				}
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		v.res.Misses++
		if flags&recFlash != 0 {
			v.res.FlashMisses++
		} else {
			v.res.RAMMisses++
		}
		vic := -1
		for w := range set {
			if set[w] == 0 {
				vic = w
				break
			}
		}
		if vic < 0 {
			nu := v.nu[base : base+ways]
			vic = 0
			for w := 1; w < len(nu); w++ {
				if nu[w] > nu[vic] {
					vic = w
				}
			}
		}
		if v.dirty != nil {
			if set[vic] != 0 && v.dirty[base+vic] {
				v.res.Writebacks++
			}
			v.dirty[base+vic] = flags&recWrite != 0
		}
		set[vic] = key
		v.nu[base+vic] = nextUse
	}
}

// Engine groups OPT configurations into per-line-size families.
type Engine struct {
	families []*Family
	nconfigs int
}

// NewEngine builds families for a set of OPT configurations. anns maps
// line size to that line size's annotation over the full trace; it may
// be nil only for structural planning (any access then panics).
func NewEngine(cfgs []cache.Config, anns map[int]*Annotation) (*Engine, error) {
	byLine := map[int]*Family{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.Policy != cache.OPT {
			return nil, fmt.Errorf("opt: NewEngine wants OPT configs, got %v", cfg)
		}
		f := byLine[cfg.LineBytes]
		if f == nil {
			var ann *Annotation
			if anns != nil {
				ann = anns[cfg.LineBytes]
				if ann == nil {
					return nil, fmt.Errorf("opt: no annotation for %dB lines", cfg.LineBytes)
				}
				if ann.LineBytes != cfg.LineBytes {
					return nil, fmt.Errorf("opt: annotation is for %dB lines, config %v", ann.LineBytes, cfg)
				}
			}
			f = &Family{
				lineBytes: cfg.LineBytes,
				lineShift: cfg.IndexShift(),
				ann:       ann,
			}
			byLine[cfg.LineBytes] = f
		}
		sets := cfg.Sets()
		v := &variant{
			index:   i,
			cfg:     cfg,
			setMask: uint32(sets - 1),
			ways:    cfg.Ways,
			lines:   make([]uint32, sets*cfg.Ways),
			nu:      make([]uint32, sets*cfg.Ways),
		}
		if cfg.Write == cache.WriteBack {
			v.dirty = make([]bool, sets*cfg.Ways)
		}
		v.res.Config = cfg
		f.variants = append(f.variants, v)
	}
	e := &Engine{nconfigs: len(cfgs)}
	for _, f := range byLine {
		e.families = append(e.families, f)
	}
	// Deterministic unit order regardless of map iteration.
	sort.Slice(e.families, func(i, j int) bool {
		return e.families[i].lineBytes < e.families[j].lineBytes
	})
	return e, nil
}

// Families returns the family units in deterministic order.
func (e *Engine) Families() []*Family { return e.families }

// Results returns one result per input configuration, in input order,
// composing each variant's miss counters with its family's shared
// totals.
func (e *Engine) Results() []cache.Result {
	out := make([]cache.Result, e.nconfigs)
	for _, f := range e.families {
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
	return out
}

// Sweep runs every configuration over the trace in one annotated pass —
// the serial entry point mirroring cache.Sweep.
func Sweep(cfgs []cache.Config, trace []uint32) ([]cache.Result, error) {
	lineSizes := make([]int, 0, 2)
	for _, cfg := range cfgs {
		lineSizes = append(lineSizes, cfg.LineBytes)
	}
	anns, err := AnnotateAll(trace, lineSizes)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfgs, anns)
	if err != nil {
		return nil, err
	}
	for _, f := range e.families {
		f.AccessAll(trace)
	}
	return e.Results(), nil
}
