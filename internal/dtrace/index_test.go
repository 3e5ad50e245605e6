// Tests for the PALMIDX1 block index: indexed traces must round-trip,
// seek bit-identically from every boundary, keep the pre-footer bytes
// identical to the index-less encoding, and leave index-less traces
// decoding everywhere unchanged.
package dtrace

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// packIndexed packs with synthetic tick marks (one every tickEvery refs)
// so SeekTick has something to bisect.
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

// readRange decodes a ranged source to exhaustion.
func readRange(t testing.TB, src *PackedSource) []uint32 {
	t.Helper()
	defer src.Close()
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

// TestIndexedStreamingWriterMatchesPackTraceIndexed: the incremental
// indexed writer and the one-shot helper must produce identical bytes,
// and the pre-footer prefix must equal the index-less encoding.
func TestIndexedStreamingWriterMatchesPackTraceIndexed(t *testing.T) {
	addrs, kinds := packedTestTrace(20_000, 7)
	marks := []TickMark{{Ref: 0, Tick: 3}, {Ref: 5_000, Tick: 90}, {Ref: 15_000, Tick: 700}}
	want, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := NewIndexedPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mi := 0
	for i := range addrs {
		for mi < len(marks) && marks[mi].Ref <= uint64(i) {
			w.NoteTick(marks[mi].Tick)
			mi++
		}
		if err := w.WriteRef(addrs[i], kinds[i]); err != nil {
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

// TestIndexedTraceDecodesEverywhere: both decoders and the sniffing open
// path must accept an indexed trace and recover the original refs.
func TestIndexedTraceDecodesEverywhere(t *testing.T) {
	addrs, kinds := packedTestTrace(15_000, 11)
	data := packIndexed(t, addrs, kinds, 100)

	gotAddrs, gotKinds, err := UnpackTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if gotAddrs[i] != addrs[i] || gotKinds[i] != kinds[i] {
			t.Fatalf("UnpackTrace ref %d = %#x/%d, want %#x/%d",
				i, gotAddrs[i], gotKinds[i], addrs[i], kinds[i])
		}
	}

	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	streamed := readRange(t, src)
	if len(streamed) != len(addrs) {
		t.Fatalf("streamed %d refs, want %d", len(streamed), len(addrs))
	}
	for i := range addrs {
		if streamed[i] != addrs[i] {
			t.Fatalf("streamed ref %d = %#x, want %#x", i, streamed[i], addrs[i])
		}
	}
}

// TestIndexlessTraceHasNoIndex: old traces open everywhere unchanged and
// report ErrNoIndex from the index path, never corruption.
func TestIndexlessTraceHasNoIndex(t *testing.T) {
	addrs, kinds := packedTestTrace(10_000, 13)
	data, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedBytes(data); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("OpenIndexedBytes on index-less trace: %v, want ErrNoIndex", err)
	}
	if _, _, err := UnpackTrace(data); err != nil {
		t.Fatalf("UnpackTrace rejected index-less trace: %v", err)
	}
	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := readRange(t, src); len(got) != len(addrs) {
		t.Fatalf("streamed %d refs, want %d", len(got), len(addrs))
	}

	// The tiny traces from before the index era must also stay fine.
	empty, err := PackTrace(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedBytes(empty); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("OpenIndexedBytes on empty trace: %v, want ErrNoIndex", err)
	}

	// The file open path reports the same, and a missing file as such.
	path := filepath.Join(t.TempDir(), "plain.ptrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedTrace(path); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("OpenIndexedTrace on index-less file: %v, want ErrNoIndex", err)
	}
	if _, err := OpenIndexedTrace(path + ".missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenIndexedTrace on a missing file: %v, want fs.ErrNotExist", err)
	}
}

// TestSeekRefBitIdentical: resuming from every block boundary — and from
// interior ordinals requiring a discard — must reproduce the serial
// decode's suffix exactly.
func TestSeekRefBitIdentical(t *testing.T) {
	addrs, kinds := packedTestTrace(3*blockRefs+777, 17)
	data := packIndexed(t, addrs, kinds, 1000)
	it, err := OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if it.TotalRefs() != uint64(len(addrs)) {
		t.Fatalf("TotalRefs = %d, want %d", it.TotalRefs(), len(addrs))
	}
	refs := []uint64{0, 1, 4095, 4096, 4097, 8192, 10_000, uint64(len(addrs)) - 1, uint64(len(addrs))}
	for _, ref := range refs {
		src, err := it.SeekRef(ref)
		if err != nil {
			t.Fatalf("SeekRef(%d): %v", ref, err)
		}
		got := readRange(t, src)
		want := addrs[ref:]
		if len(got) != len(want) {
			t.Fatalf("SeekRef(%d): %d refs, want %d", ref, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekRef(%d): ref %d = %#x, want %#x", ref, ref+uint64(i), got[i], want[i])
			}
		}
	}
	if _, err := it.SeekRef(uint64(len(addrs)) + 1); err == nil {
		t.Error("SeekRef beyond the trace succeeded")
	}
}

// readKinded decodes a source to exhaustion through NextChunkKinded.
func readKinded(t testing.TB, src *PackedSource) ([]uint32, []uint8) {
	t.Helper()
	defer src.Close()
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

// TestOpenRangePartitionsConcatenate: ranges cut at every indexed block
// boundary and one reference either side of it — so most ranges start
// and end inside a block — decode through OpenRange, concatenated, to
// exactly the serial decode, kinds included.
func TestOpenRangePartitionsConcatenate(t *testing.T) {
	addrs, kinds := packedTestTrace(5*blockRefs+123, 19)
	data := packIndexed(t, addrs, kinds, 0)
	serial, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantK := readKinded(t, serial)
	if !slices.Equal(wantA, addrs) || !slices.Equal(wantK, kinds) {
		t.Fatal("serial decode does not reproduce the packed trace")
	}
	it, err := OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	total := it.TotalRefs()
	cuts := []uint64{0, total}
	for _, e := range it.Index().Entries {
		for _, c := range []uint64{e.StartRef - 1, e.StartRef, e.StartRef + 1} {
			if c > 0 && c < total { // StartRef 0 - 1 wraps past total
				cuts = append(cuts, c)
			}
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	if len(cuts) < 3*len(it.Index().Entries) {
		t.Fatalf("only %d cuts for %d blocks", len(cuts), len(it.Index().Entries))
	}
	var gotA []uint32
	var gotK []uint8
	for i := 0; i+1 < len(cuts); i++ {
		src, err := it.OpenRange(cuts[i], cuts[i+1]-cuts[i])
		if err != nil {
			t.Fatalf("OpenRange(%d, %d): %v", cuts[i], cuts[i+1]-cuts[i], err)
		}
		a, k := readKinded(t, src)
		if uint64(len(a)) != cuts[i+1]-cuts[i] {
			t.Fatalf("range [%d, %d) decoded %d refs", cuts[i], cuts[i+1], len(a))
		}
		gotA = append(gotA, a...)
		gotK = append(gotK, k...)
	}
	if !slices.Equal(gotA, wantA) {
		t.Error("concatenated ranges differ from the serial decode's addresses")
	}
	if !slices.Equal(gotK, wantK) {
		t.Error("concatenated ranges differ from the serial decode's kinds")
	}
}

// TestSeekTickBlockGranular: SeekTick lands on the last indexed boundary
// at or before the requested tick and resumes bit-identically, kinds
// included, from memory and from a file (whose ranged sources own, and
// close, their own handle).
func TestSeekTickBlockGranular(t *testing.T) {
	addrs, kinds := packedTestTrace(4*blockRefs, 23)
	tickEvery := 512 // tick t starts at ref t*512
	data := packIndexed(t, addrs, kinds, tickEvery)
	path := filepath.Join(t.TempDir(), "seek.ptrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromBytes, err := OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := OpenIndexedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []*IndexedTrace{fromBytes, fromFile} {
		for _, tick := range []uint64{0, 1, 7, 8, 9, 20, 1 << 40} {
			src, startRef, startTick, err := it.SeekTick(tick)
			if err != nil {
				t.Fatalf("SeekTick(%d): %v", tick, err)
			}
			if startTick > tick && startRef != 0 {
				t.Fatalf("SeekTick(%d) landed after the request: ref %d tick %d", tick, startRef, startTick)
			}
			if startRef != uint64(it.Index().Entries[it.Index().FindTick(tick)].StartRef) {
				t.Fatalf("SeekTick(%d) ref %d disagrees with FindTick", tick, startRef)
			}
			var gotAddrs []uint32
			var gotKinds []uint8
			buf, kbuf := make([]uint32, 1009), make([]uint8, 1009)
			for {
				n, err := src.NextChunkKinded(buf, kbuf)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				gotAddrs = append(gotAddrs, buf[:n]...)
				gotKinds = append(gotKinds, kbuf[:n]...)
			}
			if err := src.Close(); err != nil {
				t.Fatalf("SeekTick(%d): Close: %v", tick, err)
			}
			if len(gotAddrs) != len(addrs)-int(startRef) {
				t.Fatalf("SeekTick(%d): %d refs, want %d", tick, len(gotAddrs), len(addrs)-int(startRef))
			}
			for i := range gotAddrs {
				if gotAddrs[i] != addrs[startRef+uint64(i)] || gotKinds[i] != kinds[startRef+uint64(i)] {
					t.Fatalf("SeekTick(%d): ref %d diverged", tick, startRef+uint64(i))
				}
			}
		}
	}

	// Every seek reopens the file, so once it is gone seeking fails.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fromFile.SeekTick(8); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("SeekTick on a removed file: err = %v, want fs.ErrNotExist", err)
	}

	// An empty indexed trace has no boundary to land on: SeekTick
	// returns an empty source at ref 0.
	empty, err := OpenIndexedBytes(packIndexed(t, nil, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	src, startRef, _, err := empty.SeekTick(5)
	if err != nil || startRef != 0 {
		t.Fatalf("SeekTick on an empty trace: ref %d, err %v", startRef, err)
	}
	if got := readRange(t, src); len(got) != 0 {
		t.Errorf("SeekTick on an empty trace decoded %d refs", len(got))
	}
}

// FuzzIndexSeek is the differential seek target: for any input that
// opens as an indexed trace, seeking to an arbitrary ordinal and
// decoding to the end must reproduce the serial decode's suffix.
func FuzzIndexSeek(f *testing.F) {
	addrs, kinds := packedTestTrace(3*blockRefs+500, 29)
	f.Add(packIndexed(f, addrs, kinds, 777), uint64(5000))
	f.Add(packIndexed(f, addrs[:100], nil, 10), uint64(3))
	f.Add(packIndexed(f, nil, nil, 0), uint64(0))
	plain, err := PackTrace(addrs[:2000], kinds[:2000])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, uint64(1000))

	f.Fuzz(func(t *testing.T, data []byte, ref uint64) {
		it, err := OpenIndexedBytes(data)
		if err != nil {
			return // no index, or corrupt: rejection is the correct outcome
		}
		serial, _, serialErr := UnpackTrace(data)
		if serialErr == nil && it.TotalRefs() != uint64(len(serial)) {
			t.Fatalf("index claims %d refs, serial decode found %d", it.TotalRefs(), len(serial))
		}
		if total := it.TotalRefs(); total > 0 {
			ref %= total + 1
		} else {
			ref = 0
		}
		src, err := it.SeekRef(ref)
		if err != nil {
			if serialErr == nil {
				t.Fatalf("SeekRef(%d) failed on a serially valid trace: %v", ref, err)
			}
			return
		}
		defer src.Close()
		var got []uint32
		buf := make([]uint32, 257)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				if serialErr == nil {
					t.Fatalf("ranged decode failed on a serially valid trace: %v", err)
				}
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if serialErr != nil {
			// The footer validated but the stream is corrupt elsewhere;
			// nothing serial to compare against.
			return
		}
		want := serial[ref:]
		if len(got) != len(want) {
			t.Fatalf("SeekRef(%d) decoded %d refs, serial suffix holds %d", ref, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekRef(%d) ref %d = %#x, serial %#x", ref, ref+uint64(i), got[i], want[i])
			}
		}
	})
}
