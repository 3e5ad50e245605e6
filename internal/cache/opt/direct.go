// DirectCache is the reference OPT simulator: one configuration, the
// plainest possible transcription of Belady's rule. It exists to anchor
// the Family engine (and the sweep plumbing above it) in differential
// tests, so it favors obviousness over speed and shares no simulation
// code with Family.
package opt

import (
	"fmt"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// DirectCache simulates one OPT configuration over an annotated trace.
type DirectCache struct {
	cfg       cache.Config
	ann       *Annotation
	lineShift uint
	setMask   uint32
	ways      int
	lines     []uint32 // line number + 1; 0 = invalid
	nu        []uint32 // per-way next-use position as of its last access
	dirty     []bool   // per-line dirty bits (WriteBack only)
	pos       uint32   // global trace position of the next reference
	res       cache.Result
}

// NewDirect creates the reference simulator. ann may be nil only for
// structural planning; any access then panics.
func NewDirect(cfg cache.Config, ann *Annotation) (*DirectCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy != cache.OPT {
		return nil, fmt.Errorf("opt: NewDirect wants an OPT config, got %v", cfg)
	}
	if ann != nil && ann.LineBytes != cfg.LineBytes {
		return nil, fmt.Errorf("opt: annotation is for %dB lines, config %v", ann.LineBytes, cfg)
	}
	sets := cfg.Sets()
	d := &DirectCache{
		cfg:       cfg,
		ann:       ann,
		lineShift: cfg.IndexShift(),
		setMask:   uint32(sets - 1),
		ways:      cfg.Ways,
		lines:     make([]uint32, sets*cfg.Ways),
		nu:        make([]uint32, sets*cfg.Ways),
	}
	if cfg.Write == cache.WriteBack {
		d.dirty = make([]bool, sets*cfg.Ways)
	}
	d.res.Config = cfg
	return d, nil
}

// Result returns the statistics accumulated so far.
func (d *DirectCache) Result() cache.Result { return d.res }

// Access performs one reference. The reference must be trace[d.pos] of
// the annotated trace — OPT is only defined against the trace its
// annotation was computed from.
func (d *DirectCache) Access(addr uint32) bool {
	return d.access(addr, false)
}

// AccessKind performs one reference with its access kind.
func (d *DirectCache) AccessKind(addr uint32, kind uint8) bool {
	return d.access(addr, cache.IsWrite(kind))
}

func (d *DirectCache) access(addr uint32, write bool) bool {
	nextUse := d.ann.Next[d.pos]
	d.pos++

	isFlash := addr-bus.ROMBase < bus.ROMSize
	d.res.Accesses++
	if isFlash {
		d.res.FlashRefs++
	} else {
		d.res.RAMRefs++
	}
	if write {
		d.res.Writes++
	}

	line := addr >> d.lineShift
	base := int(line&d.setMask) * d.ways
	key := line + 1

	for w := 0; w < d.ways; w++ {
		if d.lines[base+w] == key {
			// A hit refreshes the stored next use: the invariant that
			// every resident way's nu points past the current position
			// holds because position nu itself is, by construction of
			// the chain, the next access to this line.
			d.nu[base+w] = nextUse
			if write && d.dirty != nil {
				d.dirty[base+w] = true
			}
			return true
		}
	}

	d.res.Misses++
	if isFlash {
		d.res.FlashMisses++
	} else {
		d.res.RAMMisses++
	}
	victim := -1
	for w := 0; w < d.ways; w++ {
		if d.lines[base+w] == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		// Belady's rule: evict the way used farthest in the future,
		// first-max scan as the deterministic tie-break.
		victim = 0
		for w := 1; w < d.ways; w++ {
			if d.nu[base+w] > d.nu[base+victim] {
				victim = w
			}
		}
	}
	if d.dirty != nil {
		if d.lines[base+victim] != 0 && d.dirty[base+victim] {
			d.res.Writebacks++
		}
		d.dirty[base+victim] = write
	}
	d.lines[base+victim] = key
	d.nu[base+victim] = nextUse
	return false
}

// AccessAll performs each reference in order.
func (d *DirectCache) AccessAll(refs []uint32) {
	for _, addr := range refs {
		d.access(addr, false)
	}
}

// AccessAllKinded performs each (reference, kind) pair in order; nil
// kinds is an address-only chunk.
func (d *DirectCache) AccessAllKinded(refs []uint32, kinds []uint8) {
	if kinds == nil {
		d.AccessAll(refs)
		return
	}
	for i, addr := range refs {
		d.access(addr, cache.IsWrite(kinds[i]))
	}
}
