package bus

import (
	"testing"

	"palmsim/internal/m68k"
)

// dirtyAddrs exercises one write per mutation path, spread across distinct
// 64 KB pages so a missing markDirty call in any path leaves its page
// stained after Reclaim.
func TestImageReclaimRestoresZeroState(t *testing.T) {
	img := NewImage()
	b := NewFromImage(nil, img)

	var cycles uint64
	b.BindCycles(&cycles)

	b.Write(0x000010, m68k.Long, 0xDEADBEEF) // untraced
	b.Tracer = func(uint32, m68k.Size, m68k.Access) {}
	b.Write(0x010010, m68k.Word, 0x1234) // traced
	b.Tracer = nil
	b.TraceNative = true
	b.WriteTraced(0x020010, m68k.Byte, 0x56)                    // native, counted
	b.Poke(0x030010, m68k.Long, 0xCAFEBABE)                     // Poke RAM
	b.PokeBytes(0x040010, []byte{1, 2, 3})                      // PokeBytes
	b.Poke(ROMBase+0x10010, m68k.Word, 0xBEEF)                  // Poke flash
	b.Write(0x04FFFF, m68k.Long, 0x01020304)                    // page-straddling write
	if err := b.LoadROM(0x20000, []byte{9, 8, 7}); err != nil { // LoadROM
		t.Fatal(err)
	}
	// The block engine's inline fast path writes through BlockBinding's
	// region slices and marks via BlockRegion.Dirty.
	bind := b.BlockBinding(nil)
	if bind.Regions[0].Dirty == nil {
		t.Fatalf("RAM BlockRegion carries no dirty map")
	}

	img.Reclaim()
	if !img.Recycled() {
		t.Fatalf("Recycled() false after Reclaim")
	}
	for i, v := range img.ram {
		if v != 0 {
			t.Fatalf("RAM[%#x] = %#x after Reclaim, want 0", i, v)
		}
	}
	for i, v := range img.flash {
		if v != 0 {
			t.Fatalf("Flash[%#x] = %#x after Reclaim, want 0", i, v)
		}
	}
	for p, d := range img.ramDirty {
		if d != 0 {
			t.Fatalf("ramDirty[%d] still set after Reclaim", p)
		}
	}
	for p, d := range img.flashDirty {
		if d != 0 {
			t.Fatalf("flashDirty[%d] still set after Reclaim", p)
		}
	}
}

// TestImageReclaimIsSparse pins the point of the pool: a lightly-touched
// image reports few dirty pages, so Reclaim does proportionally little
// work instead of re-zeroing all 20 MB.
func TestImageReclaimIsSparse(t *testing.T) {
	img := NewImage()
	b := NewFromImage(nil, img)
	b.Write(0x1000, m68k.Long, 1)
	b.Write(0x1004, m68k.Long, 2)
	dirty := 0
	for _, d := range img.ramDirty {
		if d != 0 {
			dirty++
		}
	}
	if dirty != 1 {
		t.Fatalf("two writes to one page marked %d pages, want 1", dirty)
	}
}
