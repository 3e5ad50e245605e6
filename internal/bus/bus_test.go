package bus

import (
	"testing"
	"testing/quick"

	"palmsim/internal/m68k"
)

// fakeDevice records register accesses.
type fakeDevice struct {
	lastRead  uint32
	lastWrite uint32
	lastVal   uint32
	readVal   uint32
	ops       int // reads + writes
}

func (d *fakeDevice) ReadReg(off uint32, size m68k.Size) uint32 {
	d.lastRead = off
	d.ops++
	return d.readVal
}

func (d *fakeDevice) WriteReg(off uint32, size m68k.Size, v uint32) {
	d.lastWrite, d.lastVal = off, v
	d.ops++
}

// TestClassify holds Mapped to the memory map's window boundaries: RAM and
// flash are mapped, I/O and open bus are not.
func TestClassify(t *testing.T) {
	cases := []struct {
		addr uint32
		want bool
	}{
		{0, true},
		{RAMSize - 1, true},
		{RAMSize, false},
		{ROMBase - 1, false},
		{ROMBase, true},
		{ROMBase + ROMSize - 1, true},
		{ROMBase + ROMSize, false},
		{IOBase, false},
		{0xFFFFFFFF, false},
		{0x08000000, false},
	}
	for _, c := range cases {
		if got := Mapped(c.addr); got != c.want {
			t.Errorf("Mapped(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestRAMReadWrite(t *testing.T) {
	b := New(nil)
	b.Write(0x1000, m68k.Long, 0xDEADBEEF)
	if got := b.Read(0x1000, m68k.Long, m68k.Read); got != 0xDEADBEEF {
		t.Errorf("long = %#x", got)
	}
	if got := b.Read(0x1000, m68k.Byte, m68k.Read); got != 0xDE {
		t.Errorf("big-endian byte = %#x, want 0xDE", got)
	}
	if got := b.Read(0x1002, m68k.Word, m68k.Read); got != 0xBEEF {
		t.Errorf("word = %#x", got)
	}
}

func TestROMIsReadOnly(t *testing.T) {
	b := New(nil)
	if err := b.LoadROM(0, []byte{0x12, 0x34}); err != nil {
		t.Fatal(err)
	}
	b.Write(ROMBase, m68k.Word, 0xFFFF)
	if got := b.Read(ROMBase, m68k.Word, m68k.Read); got != 0x1234 {
		t.Errorf("ROM modified by bus write: %#x", got)
	}
	if b.Stats.FlashWrites != 1 {
		t.Errorf("flash write not counted")
	}
	// Poke bypasses the protection (ROM transfer).
	b.Poke(ROMBase, m68k.Word, 0xABCD)
	if got := b.Read(ROMBase, m68k.Word, m68k.Read); got != 0xABCD {
		t.Errorf("Poke to flash failed: %#x", got)
	}
}

func TestLoadROMBounds(t *testing.T) {
	b := New(nil)
	if err := b.LoadROM(ROMSize-1, []byte{1, 2}); err == nil {
		t.Error("oversized ROM load accepted")
	}
}

func TestDeviceDispatch(t *testing.T) {
	d := &fakeDevice{readVal: 0x55}
	b := New(d)
	if got := b.Read(IOBase+0x610, m68k.Word, m68k.Read); got != 0x55 {
		t.Errorf("device read = %#x", got)
	}
	if d.lastRead != 0x610 {
		t.Errorf("device saw offset %#x", d.lastRead)
	}
	b.Write(IOBase+0x60E, m68k.Word, 3)
	if d.lastWrite != 0x60E || d.lastVal != 3 {
		t.Errorf("device write off=%#x v=%d", d.lastWrite, d.lastVal)
	}
}

func TestStatsAccounting(t *testing.T) {
	b := New(nil)
	b.LoadROM(0, []byte{0, 0, 0, 0})
	b.Read(0x100, m68k.Word, m68k.Fetch)
	b.Read(ROMBase, m68k.Word, m68k.Fetch)
	b.Read(0x200, m68k.Long, m68k.Read)
	b.Write(0x300, m68k.Byte, 1)
	if b.Stats.RAMRefs != 3 || b.Stats.FlashRefs != 1 {
		t.Errorf("region counts: ram=%d flash=%d", b.Stats.RAMRefs, b.Stats.FlashRefs)
	}
	if b.Stats.Fetches != 2 || b.Stats.Reads != 1 || b.Stats.Writes != 1 {
		t.Errorf("kind counts: %+v", b.Stats)
	}
	if b.Stats.TotalRefs() != 4 {
		t.Errorf("total = %d", b.Stats.TotalRefs())
	}
}

func TestAvgMemCycles(t *testing.T) {
	s := Stats{RAMRefs: 1, FlashRefs: 2}
	want := (1.0*1 + 2.0*3) / 3
	if got := s.AvgMemCycles(); got != want {
		t.Errorf("avg = %f, want %f", got, want)
	}
	empty := Stats{}
	if empty.AvgMemCycles() != 0 {
		t.Error("empty stats should produce 0")
	}
}

func TestChargeCycles(t *testing.T) {
	b := New(nil)
	b.LoadROM(0, []byte{0, 0})
	var charged uint64
	b.BindCycles(&charged)
	b.Read(0x100, m68k.Word, m68k.Read)      // RAM: 1
	b.Read(ROMBase, m68k.Word, m68k.Read)    // flash: 3
	b.Write(ROMBase, m68k.Word, 0)           // discarded flash write: 3
	b.Read(IOBase, m68k.Word, m68k.Read)     // I/O: free
	b.Read(0x08000000, m68k.Byte, m68k.Read) // open bus: free
	b.TraceNative = true
	b.WriteTraced(0x200, m68k.Byte, 1) // native, counted: 1
	if want := uint64(2*RAMCycles + 2*FlashCycles); charged != want {
		t.Errorf("charged %d cycles, want %d", charged, want)
	}
}

// tracedRef is one reference as the Tracer receives it.
type tracedRef struct {
	addr uint32
	size m68k.Size
	kind m68k.Access
}

type countTracer struct{ refs []tracedRef }

func (c *countTracer) ref(addr uint32, size m68k.Size, kind m68k.Access) {
	c.refs = append(c.refs, tracedRef{addr, size, kind})
}

func TestTracerSeesEverything(t *testing.T) {
	b := New(nil)
	tr := &countTracer{}
	b.Tracer = tr.ref
	b.Read(0x10, m68k.Word, m68k.Fetch)
	b.Write(0x20, m68k.Byte, 7)
	want := []tracedRef{{0x10, m68k.Word, m68k.Fetch}, {0x20, m68k.Byte, m68k.Write}}
	if len(tr.refs) != len(want) {
		t.Fatalf("tracer saw %d refs", len(tr.refs))
	}
	for i := range want {
		if tr.refs[i] != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, tr.refs[i], want[i])
		}
	}
}

func TestTraceNativeSwitch(t *testing.T) {
	b := New(nil)
	tr := &countTracer{}
	b.Tracer = tr.ref
	b.TraceNative = false
	b.WriteTraced(0x10, m68k.Byte, 1)
	if len(tr.refs) != 0 {
		t.Error("untraced native write reached the tracer")
	}
	if b.Peek(0x10, m68k.Byte) != 1 {
		t.Error("native write lost")
	}
	b.TraceNative = true
	b.WriteTraced(0x11, m68k.Byte, 2)
	if len(tr.refs) != 1 {
		t.Error("traced native write missed the tracer")
	}
}

func TestPeekBytesAndPokeBytes(t *testing.T) {
	b := New(nil)
	b.PokeBytes(0x40, []byte("palm"))
	if got := string(b.PeekBytes(0x40, 4)); got != "palm" {
		t.Errorf("round trip = %q", got)
	}
	if b.Stats.TotalRefs() != 0 {
		t.Error("Peek/Poke must not count references")
	}
}

func TestOpenBusReadsAllOnes(t *testing.T) {
	b := New(nil)
	if got := b.Read(0x02000000, m68k.Word, m68k.Read); got != 0xFFFF {
		t.Errorf("open bus = %#x, want 0xFFFF", got)
	}
	if b.Stats.OpenRefs != 1 {
		t.Error("open-bus access not counted")
	}
}

// Property: any aligned value written to RAM reads back at every size.
func TestRAMRoundTripQuick(t *testing.T) {
	b := New(nil)
	f := func(addr uint32, v uint32) bool {
		addr = addr % (RAMSize - 4) &^ 3
		b.Write(addr, m68k.Long, v)
		if b.Read(addr, m68k.Long, m68k.Read) != v {
			return false
		}
		hi := b.Read(addr, m68k.Word, m68k.Read)
		lo := b.Read(addr+2, m68k.Word, m68k.Read)
		return hi<<16|lo == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
