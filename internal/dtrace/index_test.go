// Tests for the PALMIDX1 footer: indexed traces must round-trip through
// both decoders, keep the pre-footer bytes identical to the index-less
// encoding, and record for every block where the decoder meets it, the
// predictor state it resumes from and the tick it starts at; index-less
// traces must keep decoding everywhere unchanged.
package dtrace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// packIndexed packs with synthetic tick marks (one every tickEvery refs).
func packIndexed(t testing.TB, addrs []uint32, kinds []uint8, tickEvery int) []byte {
	t.Helper()
	var marks []TickMark
	if tickEvery > 0 {
		for r := 0; r < len(addrs); r += tickEvery {
			marks = append(marks, TickMark{Ref: uint64(r), Tick: uint64(r / tickEvery)})
		}
	}
	data, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// footerOf parses the PALMIDX1 footer of an indexed trace, locating it
// through the offset field ahead of the trailing magic.
func footerOf(t testing.TB, data []byte) (*Index, uint64) {
	t.Helper()
	if !bytes.HasSuffix(data, []byte(IndexMagic)) {
		t.Fatal("trace carries no PALMIDX1 footer")
	}
	footOff := binary.LittleEndian.Uint64(data[len(data)-16:])
	if footOff > uint64(len(data)) {
		t.Fatalf("footer offset %d beyond the %d-byte trace", footOff, len(data))
	}
	total := binary.LittleEndian.Uint64(data[len(data)-32:])
	ix, err := parseIndexFooter(data[footOff:], footOff, total)
	if err != nil {
		t.Fatal(err)
	}
	return ix, footOff
}

// readAddrs decodes a source to exhaustion through NextChunk.
func readAddrs(t testing.TB, src *PackedSource) []uint32 {
	t.Helper()
	var out []uint32
	buf := make([]uint32, 1009) // deliberately unaligned with blocks
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// readKinded decodes a source to exhaustion through NextChunkKinded.
func readKinded(t testing.TB, src *PackedSource) ([]uint32, []uint8) {
	t.Helper()
	var addrs []uint32
	var kinds []uint8
	buf, kbuf := make([]uint32, 1009), make([]uint8, 1009)
	for {
		n, err := src.NextChunkKinded(buf, kbuf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return addrs, kinds
		}
		addrs = append(addrs, buf[:n]...)
		kinds = append(kinds, kbuf[:n]...)
	}
}

// decodeBoth decodes data through UnpackTrace and through PackedSource's
// NextChunkKinded, reading through each of refillReaders, and fails
// unless all yield addrs and kinds (nil kinds meaning all fetches).
func decodeBoth(t testing.TB, data []byte, addrs []uint32, kinds []uint8) {
	t.Helper()
	want := kinds
	if want == nil {
		want = make([]uint8, len(addrs))
	}
	gotA, gotK, err := UnpackTrace(data)
	if err != nil {
		t.Fatalf("UnpackTrace: %v", err)
	}
	if !slices.Equal(gotA, addrs) || !slices.Equal(gotK, want) {
		t.Fatalf("UnpackTrace decoded %d refs that differ from the %d packed", len(gotA), len(addrs))
	}
	for _, rr := range refillReaders {
		src, err := NewPackedSource(rr.open(data))
		if err != nil {
			t.Fatalf("NewPackedSource over %s: %v", rr.name, err)
		}
		gotA, gotK = readKinded(t, src)
		if !slices.Equal(gotA, addrs) || !slices.Equal(gotK, want) {
			t.Fatalf("PackedSource over %s decoded %d refs that differ from the %d packed", rr.name, len(gotA), len(addrs))
		}
	}
}

// TestIndexedStreamingWriterMatchesPackTraceIndexed: the incremental
// writer with NoteTick calls and the one-shot helper with the same marks
// must produce identical bytes, and the pre-footer prefix must equal the
// index-less encoding.
func TestIndexedStreamingWriterMatchesPackTraceIndexed(t *testing.T) {
	addrs, kinds := packedTestTrace(20_000, 7)
	marks := []TickMark{{Ref: 0, Tick: 3}, {Ref: 5_000, Tick: 90}, {Ref: 15_000, Tick: 700}}
	want, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := NewPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mi := 0
	for i := range addrs {
		for mi < len(marks) && marks[mi].Ref <= uint64(i) {
			w.NoteTick(marks[mi].Tick)
			mi++
		}
		if err := w.WriteRefs(addrs[i:i+1], kinds[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streaming indexed writer output differs from PackTraceIndexed")
	}
	if w.Bytes() != uint64(buf.Len()) {
		t.Errorf("Bytes() = %d, encoded %d", w.Bytes(), buf.Len())
	}

	plain, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= len(plain) {
		t.Fatalf("indexed trace (%d bytes) not longer than index-less (%d)", len(want), len(plain))
	}
	if !bytes.Equal(want[:len(plain)], plain) {
		t.Fatal("indexed trace prefix differs from index-less encoding")
	}
}

// TestIndexedTraceDecodesEverywhere: both decoders must accept an
// indexed trace and recover the original refs and kinds.
func TestIndexedTraceDecodesEverywhere(t *testing.T) {
	addrs, kinds := packedTestTrace(15_000, 11)
	data := packIndexed(t, addrs, kinds, 100)
	decodeBoth(t, data, addrs, kinds)

	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := readAddrs(t, src); !slices.Equal(got, addrs) {
		t.Fatalf("NextChunk streamed %d refs that differ from the %d packed", len(got), len(addrs))
	}
}

// TestIndexlessTraceHasNoIndex: a trace that ends at its end-of-trace
// marker — PackTrace's output, in memory or read from a file, and the
// empty trace — decodes through both decoders exactly as its indexed
// twin does.
func TestIndexlessTraceHasNoIndex(t *testing.T) {
	addrs, kinds := packedTestTrace(10_000, 13)
	data, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasSuffix(data, []byte(IndexMagic)) || data[len(data)-1] != 0 {
		t.Fatal("PackTrace output does not end at the end-of-trace marker")
	}
	decodeBoth(t, data, addrs, kinds)
	decodeBoth(t, packIndexed(t, addrs, kinds, 0), addrs, kinds)

	empty, err := PackTrace(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeBoth(t, empty, nil, nil)
	decodeBoth(t, packIndexed(t, nil, nil, 0), nil, nil)

	path := filepath.Join(t.TempDir(), "plain.ptrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := NewPackedSource(f)
	if err != nil {
		t.Fatal(err)
	}
	gotA, gotK := readKinded(t, src)
	if !slices.Equal(gotA, addrs) || !slices.Equal(gotK, kinds) {
		t.Fatalf("file decoded %d refs that differ from the %d packed", len(gotA), len(addrs))
	}
}

// TestSeekRefBitIdentical: every footer entry holds exactly what a
// decoder needs to resume at its block — the byte offset and reference
// ordinal at which the streaming decoder meets the block's header, and
// the predictor state it has before the block's first record.
func TestSeekRefBitIdentical(t *testing.T) {
	addrs, kinds := packedTestTrace(3*blockRefs+777, 17)
	data := packIndexed(t, addrs, kinds, 1000)
	ix, footOff := footerOf(t, data)

	// Step the decoder one reference at a time; whenever no records of
	// the current block remain, the next read is a block header.
	type boundary struct {
		off, ref uint64
		st       packedState
	}
	var met []boundary
	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 1)
	for {
		if src.blockLeft == 0 {
			met = append(met, boundary{src.r.n, src.refs, src.st})
		}
		n, err := src.NextChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	// The last header met is the end-of-trace marker, right before the
	// footer.
	if len(met) != len(ix.Entries)+1 {
		t.Fatalf("decoder met %d block headers, footer has %d entries", len(met)-1, len(ix.Entries))
	}
	if end := met[len(met)-1]; end.off != footOff-1 || end.ref != uint64(len(addrs)) {
		t.Fatalf("end marker met at byte %d ref %d, want %d and %d", end.off, end.ref, footOff-1, len(addrs))
	}
	for i, e := range ix.Entries {
		m := met[i]
		if e.Offset != m.off || e.StartRef != m.ref {
			t.Errorf("entry %d at byte %d ref %d, decoder met the block at byte %d ref %d",
				i, e.Offset, e.StartRef, m.off, m.ref)
		}
		if e.PrevAddr != m.st.prevAddr || e.PrevStride != m.st.prevStride {
			t.Errorf("entry %d predictor snapshot differs from the decoder's state before the block", i)
		}
	}
}

// TestOpenRangePartitionsConcatenate: the footer's entries cut [0, total)
// into consecutive 4096-reference blocks, at strictly ascending offsets
// that all lie before the footer, for totals on both sides of a block
// boundary.
func TestOpenRangePartitionsConcatenate(t *testing.T) {
	addrs, kinds := packedTestTrace(5*blockRefs+123, 19)
	for _, total := range []int{0, 1, blockRefs, blockRefs + 1, 5*blockRefs + 123} {
		data := packIndexed(t, addrs[:total], kinds[:total], 0)
		ix, footOff := footerOf(t, data)
		if ix.TotalRefs != uint64(total) {
			t.Fatalf("total=%d: footer claims %d references", total, ix.TotalRefs)
		}
		if want := (total + blockRefs - 1) / blockRefs; len(ix.Entries) != want {
			t.Fatalf("total=%d: %d entries, want %d", total, len(ix.Entries), want)
		}
		for i, e := range ix.Entries {
			if e.StartRef != uint64(i*blockRefs) {
				t.Errorf("total=%d: entry %d starts at ref %d, want %d", total, i, e.StartRef, i*blockRefs)
			}
			if i > 0 && e.Offset <= ix.Entries[i-1].Offset {
				t.Errorf("total=%d: entry %d offset %d not after entry %d's %d", total, i, e.Offset, i-1, ix.Entries[i-1].Offset)
			}
			if e.Offset >= footOff {
				t.Errorf("total=%d: entry %d offset %d not before the footer at %d", total, i, e.Offset, footOff)
			}
		}
		decodeBoth(t, data, addrs[:total], kinds[:total])
	}
}

// TestSeekTickBlockGranular: each entry's StartTick is the latest tick
// noted at or before the block's first reference — marks inside a block
// belong to the next block — and it is 0 without marks; the empty trace
// has no entries.
func TestSeekTickBlockGranular(t *testing.T) {
	addrs, kinds := packedTestTrace(4*blockRefs, 23)
	marks := []TickMark{
		{Ref: 0, Tick: 3}, {Ref: 100, Tick: 5}, // block 0 starts at 3
		{Ref: blockRefs, Tick: 9}, // exactly at block 1's first reference
		{Ref: blockRefs + 904, Tick: 12},
		{Ref: 3*blockRefs - 1, Tick: 21}, // block 2's last reference
		{Ref: 3 * blockRefs, Tick: 30},
	}
	data, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := footerOf(t, data)
	for i, e := range ix.Entries {
		var want uint64
		for _, m := range marks {
			if m.Ref <= e.StartRef {
				want = m.Tick
			}
		}
		if e.StartTick != want {
			t.Errorf("entry %d (ref %d) starts at tick %d, want %d", i, e.StartRef, e.StartTick, want)
		}
	}
	if got := []uint64{ix.Entries[0].StartTick, ix.Entries[1].StartTick, ix.Entries[2].StartTick, ix.Entries[3].StartTick}; !slices.Equal(got, []uint64{3, 9, 12, 30}) {
		t.Errorf("block start ticks %v, want [3 9 12 30]", got)
	}
	decodeBoth(t, data, addrs, kinds)

	unmarked, _ := footerOf(t, packIndexed(t, addrs, kinds, 0))
	for i, e := range unmarked.Entries {
		if e.StartTick != 0 {
			t.Errorf("unmarked trace: entry %d starts at tick %d", i, e.StartTick)
		}
	}
	if empty, _ := footerOf(t, packIndexed(t, nil, nil, 0)); len(empty.Entries) != 0 || empty.TotalRefs != 0 {
		t.Errorf("empty trace: %d entries over %d references", len(empty.Entries), empty.TotalRefs)
	}
}

// FuzzIndexSeek round-trips fuzzed traces through the indexed writer:
// addresses accumulate the little-endian words of deltas (so a repeated
// word is a constant-stride stream), kinds cycle through kindBytes (none
// when it is empty), and every byte of tickGaps places one tick mark
// that many references after the previous one. PackTraceIndexed's output
// must decode through both decoders back to the input, and its bytes
// before the footer must equal PackTrace's.
func FuzzIndexSeek(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0}, []byte{0, 0, 1, 0, 2}, []byte{200, 17, 255}, uint16(3*blockRefs+500))
	f.Add([]byte{4, 0, 0, 0, 0xF8, 0xFF, 0xFF, 0xFF, 0, 0, 1, 0}, []byte(nil), []byte{10}, uint16(100))
	f.Add([]byte(nil), []byte(nil), []byte(nil), uint16(0))
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 2, 0, 0, 0}, []byte{1, 2}, []byte{0, 0, 64}, uint16(blockRefs))

	f.Fuzz(func(t *testing.T, deltas, kindBytes, tickGaps []byte, n uint16) {
		addrs := make([]uint32, n)
		var kinds []uint8
		if len(kindBytes) > 0 {
			kinds = make([]uint8, n)
		}
		a := uint32(0x10000000)
		for i := range addrs {
			if words := len(deltas) / 4; words > 0 {
				a += binary.LittleEndian.Uint32(deltas[4*(i%words):])
			}
			addrs[i] = a
			if kinds != nil {
				kinds[i] = kindBytes[i%len(kindBytes)] % (maxKind + 1)
			}
		}
		var marks []TickMark
		var ref, tick uint64
		for _, g := range tickGaps {
			ref += uint64(g)
			tick += 1 + uint64(g%5)
			marks = append(marks, TickMark{Ref: ref, Tick: tick})
		}

		data, err := PackTraceIndexed(addrs, kinds, marks)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := PackTrace(addrs, kinds)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, plain) {
			t.Fatal("indexed trace's bytes before the footer differ from PackTrace's")
		}
		if ix, footOff := footerOf(t, data); footOff != uint64(len(plain)) || ix.TotalRefs != uint64(n) {
			t.Fatalf("footer at byte %d over %d refs, want %d and %d", footOff, ix.TotalRefs, len(plain), n)
		}
		decodeBoth(t, data, addrs, kinds)
	})
}
