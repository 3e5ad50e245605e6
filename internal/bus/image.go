package bus

import "palmsim/internal/m68k"

// Image is a reusable machine memory image: the 16 MB RAM and 4 MB flash
// arrays plus dirty-page maps recording which 64 KB pages any write path
// has touched. Allocating and zeroing 20 MB per machine is a fixed cost
// that dominates short replays; a reclaimed Image restores the all-zero
// state by clearing only the dirty pages — typically a few hundred KB for
// a session — so emu can recycle images through a pool instead of leaning
// on the allocator.
//
// Every mutation path marks the maps: Bus.Write, Poke/PokeBytes, LoadROM,
// and the block engine's inline fast path (which receives the same slices
// via BlockBinding.Regions[].Dirty).
type Image struct {
	ram   []byte
	flash []byte

	ramDirty   []byte
	flashDirty []byte

	recycled bool
}

// NewImage allocates a fresh zeroed image.
func NewImage() *Image {
	return &Image{
		ram:        make([]byte, RAMSize),
		flash:      make([]byte, ROMSize),
		ramDirty:   make([]byte, RAMSize>>m68k.DirtyPageShift),
		flashDirty: make([]byte, ROMSize>>m68k.DirtyPageShift),
	}
}

// Recycled reports whether this image has been through at least one
// Reclaim — i.e. a pool hit rather than a fresh allocation.
func (img *Image) Recycled() bool { return img.recycled }

// Reclaim zeroes every dirty page and clears the marks, returning the
// image to its all-zero state. The Bus built over this image must not be
// used afterwards.
func (img *Image) Reclaim() {
	reclaim(img.ram, img.ramDirty)
	reclaim(img.flash, img.flashDirty)
	img.recycled = true
}

func reclaim(mem, dirty []byte) {
	for p, d := range dirty {
		if d == 0 {
			continue
		}
		lo := p << m68k.DirtyPageShift
		hi := lo + 1<<m68k.DirtyPageShift
		if hi > len(mem) {
			hi = len(mem)
		}
		clear(mem[lo:hi])
		dirty[p] = 0
	}
}

// markDirty records a write of size bytes at off in a dirty map. Writes
// are at most 4 bytes, so at most two pages straddle; out-of-range pages
// (writes clamped by writeBE anyway) are ignored.
func markDirty(dirty []byte, off uint32, size m68k.Size) {
	p := off >> m68k.DirtyPageShift
	if p >= uint32(len(dirty)) {
		return
	}
	dirty[p] = 1
	if p1 := (off + uint32(size) - 1) >> m68k.DirtyPageShift; p1 != p && p1 < uint32(len(dirty)) {
		dirty[p1] = 1
	}
}
