// Corruption handling for the packed trace format: every malformed input
// — truncated counted blocks, bad magic, invalid escape bytes, mid-varint
// EOF — must fail loudly in both the one-shot and the streaming decoder.
// A cache sweep fed a silently mis-decoded trace produces plausible wrong
// numbers, which is the worst failure mode a measurement tool can have.
package dtrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"palmsim/internal/alloctest"
	"palmsim/internal/simerr"
)

// craftRecord encodes one reference record (and its escape byte, when the
// kind is non-zero) against the given predictor state.
func craftRecord(st *packedState, addr uint32, kind uint8) []byte {
	rec := binary.AppendUvarint(nil, st.encode(addr, kind))
	if kind != 0 {
		rec = append(rec, kind)
	}
	return rec
}

// craftBlock frames records under a declared count — which the corruption
// cases deliberately set wrong.
func craftBlock(count uint64, records ...[]byte) []byte {
	out := binary.AppendUvarint(nil, count)
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}

// corruptPackedCases enumerates the malformed packed traces. Each input
// must be rejected by UnpackTrace and by PackedSource; wantErr is a
// substring of UnpackTrace's error.
func corruptPackedCases() []struct {
	name    string
	data    []byte
	wantErr string
} {
	// Pre-encode a few valid records so each case can corrupt around them.
	var st packedState
	rec1 := craftRecord(&st, 0x1000, 0)
	rec2 := craftRecord(&st, 0x1002, 0)
	var stK packedState
	recRead := craftRecord(&stK, 0x2000, 1)

	mk := func(parts ...[]byte) []byte {
		out := []byte(PackedMagic)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	endMarker := []byte{0}

	// A record with the hasKind bit set, so an escape byte must follow:
	// zigzag(delta)<<3 | hasKind(4) | ctx(0), crafted on a fresh state.
	var stEsc packedState
	kindRec := binary.AppendUvarint(nil, stEsc.encode(0x3000, 1)) // escape byte NOT appended

	// A valid indexed trace to corrupt around: truncating the footer or
	// flipping a checksummed byte must read as corruption, not as a
	// shorter-but-valid trace. The flip lands in the totalRefs field
	// (bytes -32..-24 from the end), which the checksum covers.
	idxTrace, _ := PackTraceIndexed([]uint32{0x100, 0x102, 0x104, 0x200}, nil, nil)
	patched := func(at int, b byte) []byte {
		out := append([]byte(nil), idxTrace...)
		out[len(out)+at] ^= b
		return out
	}

	// Forged footers over idxTrace's blocks. The footer-offset field is
	// outside the checksum, so it is patched in place; a forged entry or
	// total is re-encoded with appendFooter, so the checksum still
	// matches and only the structural checks can reject it.
	footOff := binary.LittleEndian.Uint64(idxTrace[len(idxTrace)-16:])
	withFootOff := func(off uint64) []byte {
		out := append([]byte(nil), idxTrace...)
		binary.LittleEndian.PutUint64(out[len(out)-16:], off)
		return out
	}
	idx, _ := parseIndexFooter(idxTrace[footOff:], footOff, 4)
	reindexed := func(e IndexEntry, total uint64) []byte {
		return appendFooter(append([]byte(nil), idxTrace[:footOff]...), []IndexEntry{e}, total, footOff)
	}
	offHead := idx.Entries[0]
	offHead.Offset++

	return []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{
			name:    "bad magic",
			data:    append([]byte("PALMPKD9"), craftBlock(1, rec1)...),
			wantErr: "not a packed trace",
		},
		{
			name:    "truncated counted block",
			data:    mk(craftBlock(3, rec1, rec2)), // declares 3, holds 2
			wantErr: "corrupt packed trace",
		},
		{
			name:    "block count without records",
			data:    mk(binary.AppendUvarint(nil, 4096)),
			wantErr: "corrupt packed trace",
		},
		{
			name:    "mid-varint EOF in record",
			data:    mk(craftBlock(1), []byte{0x80}), // continuation bit, no byte after
			wantErr: "corrupt packed trace",
		},
		{
			name:    "mid-varint EOF in block header",
			data:    mk([]byte{0xFF}), // header varint never terminates
			wantErr: "packed trace",
		},
		{
			name:    "missing end-of-trace marker",
			data:    mk(craftBlock(1, rec1)), // valid block, then EOF
			wantErr: "missing end-of-trace marker",
		},
		{
			name:    "missing kind byte",
			data:    mk(craftBlock(1, kindRec)),
			wantErr: "kind byte",
		},
		{
			name:    "invalid escape byte zero",
			data:    mk(craftBlock(1, kindRec, []byte{0}), endMarker),
			wantErr: "invalid kind byte 0",
		},
		{
			name:    "invalid escape byte above write",
			data:    mk(craftBlock(1, kindRec, []byte{3}), endMarker),
			wantErr: "invalid kind byte 3",
		},
		{
			name:    "invalid escape byte 0xff",
			data:    mk(craftBlock(1, kindRec, []byte{0xFF}), endMarker),
			wantErr: "invalid kind byte 255",
		},
		{
			name: "valid prefix then truncated second block",
			data: mk(craftBlock(1, recRead), craftBlock(2, rec1)),
			// First block decodes fine; corruption must still surface.
			wantErr: "packed trace",
		},
		{
			name:    "trailing garbage after end marker",
			data:    mk(craftBlock(1, rec1), endMarker, []byte("!!!JUNK!")),
			wantErr: "not an index footer",
		},
		{
			name:    "truncated index footer",
			data:    idxTrace[:len(idxTrace)-5],
			wantErr: "index footer",
		},
		{
			name:    "corrupt index footer checksum",
			data:    patched(-25, 0xFF),
			wantErr: "checksum",
		},
		{
			name:    "garbage after valid index footer",
			data:    append(append([]byte(nil), idxTrace...), 'x'),
			wantErr: "index footer",
		},
		{
			name:    "index footer without trailing magic",
			data:    patched(-1, 0xFF),
			wantErr: "trailing magic",
		},
		{
			name:    "index footer shorter than its fixed part",
			data:    mk(craftBlock(1, rec1), endMarker, []byte(IndexMagic), []byte{1, 2, 3}),
			wantErr: "truncated index footer",
		},
		{
			name:    "index footer offset beyond the trace",
			data:    withFootOff(1 << 40),
			wantErr: "index footer claims offset",
		},
		{
			name:    "index footer offset inside the blocks",
			data:    withFootOff(uint64(len(PackedMagic)) + 1),
			wantErr: "index footer claims offset",
		},
		{
			name:    "index entry 0 off the trace head",
			data:    reindexed(offHead, idx.TotalRefs),
			wantErr: "index entry 0",
		},
		{
			name:    "index total disagrees with the trace",
			data:    reindexed(idx.Entries[0], 0),
			wantErr: "index claims 0 references",
		},
	}
}

func TestPackedCorruptionTable(t *testing.T) {
	for _, tc := range corruptPackedCases() {
		t.Run(tc.name, func(t *testing.T) {
			// One-shot decoder.
			if _, _, err := UnpackTrace(tc.data); err == nil {
				t.Errorf("UnpackTrace accepted corrupt input")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("UnpackTrace error %q does not mention %q", err, tc.wantErr)
			}
			// Streaming decoder: the header or some NextChunk call must
			// fail before a clean end of trace.
			if _, err := stream(tc.data, make([]uint32, 512), nil); !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Errorf("PackedSource: err = %v, want ErrCorruptTrace", err)
			}
		})
	}
}

// hostileHeaderCases are packed traces whose headers declare far more
// than the input holds: blocks of 2³²−1 and 2⁶⁴−1 references, a footer
// of 2³²−1 entries, a footer claiming 2⁶⁴−1 references, and a footer
// offset pointing into the file header.
func hostileHeaderCases() []struct {
	name string
	data []byte
} {
	var st packedState
	rec := craftRecord(&st, 0x1000, 0)
	idxTrace, err := PackTraceIndexed([]uint32{0x100, 0x102, 0x104, 0x200}, []uint8{0, 1, 2, 0}, nil)
	if err != nil {
		panic(err)
	}
	footOff := binary.LittleEndian.Uint64(idxTrace[len(idxTrace)-16:])
	idx, err := parseIndexFooter(idxTrace[footOff:], footOff, 4)
	if err != nil {
		panic(err)
	}
	manyEntries := bytes.Clone(idxTrace)
	binary.LittleEndian.PutUint32(manyEntries[footOff+8:], math.MaxUint32)
	offInHeader := bytes.Clone(idxTrace)
	binary.LittleEndian.PutUint64(offInHeader[len(offInHeader)-16:], 3)

	return []struct {
		name string
		data []byte
	}{
		{"block of 2^32-1 refs then end of input",
			append([]byte(PackedMagic), craftBlock(math.MaxUint32)...)},
		{"block of 2^64-1 refs holding one record",
			append([]byte(PackedMagic), craftBlock(math.MaxUint64, rec)...)},
		{"footer of 2^32-1 entries", manyEntries},
		{"footer claiming 2^64-1 refs",
			appendFooter(bytes.Clone(idxTrace[:footOff]), idx.Entries, math.MaxUint64, footOff)},
		{"footer offset inside the file header", offInHeader},
	}
}

// Decoders may allocate at most allocPerByte·len(input) + allocFixed
// bytes. The one-shot decoder's growing address and kind slices stay
// under 32 bytes per input byte, since every reference costs at least
// one; the fixed part is the streaming decoder's 64 KiB read buffer plus
// its small structs and error values.
const (
	allocPerByte = 32
	allocFixed   = 64<<10 + 4<<10
)

// refillReaders are the readers the streaming decoder is checked
// through: the whole input at once, a 16-byte buffer, so that records
// straddle its refills, and one byte per read, so that almost every record
// takes the record-at-a-time path.
var refillReaders = []struct {
	name string
	open func(data []byte) io.Reader
}{
	{"bytes.Reader", func(data []byte) io.Reader { return bytes.NewReader(data) }},
	{"16-byte bufio.Reader", func(data []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(data), 16) }},
	{"iotest.OneByteReader", func(data []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
}

// stream opens data as a PackedSource and reads it to its end through
// NextChunk, or through NextChunkKinded when kinds is non-nil, returning
// how many references it read.
func stream(data []byte, buf []uint32, kinds []uint8) (int, error) {
	return streamFrom(bytes.NewReader(data), buf, kinds)
}

// streamFrom is stream over any reader.
func streamFrom(r io.Reader, buf []uint32, kinds []uint8) (int, error) {
	src, err := NewPackedSource(r)
	if err != nil {
		return 0, err
	}
	total := 0
	for {
		var n int
		if kinds == nil {
			n, err = src.NextChunk(buf)
		} else {
			n, err = src.NextChunkKinded(buf, kinds)
		}
		total += n
		if err != nil || n == 0 {
			return total, err
		}
	}
}

// TestPackedHostileHeaders: every decoder rejects each hostile header as
// corruption, allocating in proportion to the input, never to what the
// header declares.
func TestPackedHostileHeaders(t *testing.T) {
	buf, kinds := make([]uint32, 512), make([]uint8, 512)
	for _, tc := range hostileHeaderCases() {
		for _, d := range []struct {
			name string
			run  func() error
		}{
			{"UnpackTrace", func() error { _, _, err := UnpackTrace(tc.data); return err }},
			{"NextChunk", func() error { _, err := stream(tc.data, buf, nil); return err }},
			{"NextChunkKinded", func() error { _, err := stream(tc.data, buf, kinds); return err }},
		} {
			var err error
			alloc := alloctest.Allocated(func() { err = d.run() })
			if !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Errorf("%s: %s: err = %v, want ErrCorruptTrace", tc.name, d.name, err)
			}
			alloctest.CheckAllocs(t, tc.name+": "+d.name, len(tc.data), alloc, allocPerByte, allocFixed)
		}
	}
}

// TestPackedWriterRejectsInvalidKind: the writer must refuse kinds outside
// the m68k.Access range rather than minting traces readers reject. It
// keeps the references before the invalid one and stays usable, also when
// the invalid kind would have opened a block.
func TestPackedWriterRejectsInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRefs([]uint32{0x100}, []uint8{7}); err == nil {
		t.Error("WriteRefs accepted kind 7")
	}
	if err := w.WriteRefs([]uint32{0x100, 0x102, 0x104}, []uint8{0, 1, 3}); err == nil {
		t.Error("WriteRefs accepted kind 3")
	} else if w.Refs() != 2 {
		t.Errorf("WriteRefs wrote %d refs before the invalid kind, want 2", w.Refs())
	}
	if err := w.WriteRefs([]uint32{0x100, 0x102}, []uint8{0}); err == nil {
		t.Error("WriteRefs accepted 1 kind for 2 refs")
	}
	if err := w.WriteRefs([]uint32{0x200}, []uint8{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	decodeBoth(t, buf.Bytes(), []uint32{0x100, 0x102, 0x200}, []uint8{0, 1, 2})
	if _, err := PackTrace([]uint32{1, 2}, []uint8{0, 7}); err == nil {
		t.Error("PackTrace accepted kind 7")
	}
}

// TestPackedWriterBytes: the writer's byte accounting must equal the
// actual encoded size.
func TestPackedWriterBytes(t *testing.T) {
	addrs, kinds := packedTestTrace(5_000, 21)
	var buf bytes.Buffer
	w, err := NewPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRefs(addrs, kinds); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != uint64(buf.Len()) {
		t.Errorf("Bytes() = %d, encoded %d", w.Bytes(), buf.Len())
	}
}

// FuzzUnpackTrace drives the one-shot and streaming decoders over
// arbitrary bytes: they must never panic, must stay within the
// allocation bound, must agree on accept/reject, and anything
// UnpackTrace accepts must re-encode and round-trip.
func FuzzUnpackTrace(f *testing.F) {
	addrs, kinds := packedTestTrace(2_000, 99)
	valid, err := PackTrace(addrs, kinds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	noKinds, err := PackTrace(addrs[:100], nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(noKinds)
	empty, err := PackTrace(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	indexed, err := PackTraceIndexed(addrs[:500], kinds[:500],
		[]TickMark{{Ref: 0, Tick: 1}, {Ref: 250, Tick: 40}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indexed)
	for _, tc := range corruptPackedCases() {
		f.Add(tc.data)
	}
	for _, tc := range hostileHeaderCases() {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		buf, kbuf := make([]uint32, 333), make([]uint8, 333)
		var gotAddrs []uint32
		var gotKinds []uint8
		var err error
		alloc := alloctest.Allocated(func() { gotAddrs, gotKinds, err = UnpackTrace(data) })
		alloctest.CheckAllocs(t, "UnpackTrace", len(data), alloc, allocPerByte, allocFixed)

		// The streaming decoder must agree with the one-shot decoder.
		var streamed int
		var serr error
		alloc = alloctest.Allocated(func() { streamed, serr = stream(data, buf, nil) })
		alloctest.CheckAllocs(t, "PackedSource", len(data), alloc, allocPerByte, allocFixed)
		if serr != nil {
			if err == nil {
				t.Fatalf("UnpackTrace accepted what PackedSource rejected: %v", serr)
			}
			// A rejection is the same error, at the same reference,
			// whatever the refills.
			for _, rr := range refillReaders[1:] {
				if _, rerr := streamFrom(rr.open(data), buf, kbuf); rerr == nil || rerr.Error() != serr.Error() {
					t.Fatalf("PackedSource over %s: err = %v, want %v", rr.name, rerr, serr)
				}
			}
			return
		}
		if err != nil {
			t.Fatalf("PackedSource decoded to clean EOF what UnpackTrace rejected: %v", err)
		}
		if streamed != len(gotAddrs) {
			t.Fatalf("PackedSource streamed %d refs, UnpackTrace decoded %d", streamed, len(gotAddrs))
		}
		// Through small and one-byte refills, the decoder must decode the
		// same references and kinds.
		for _, rr := range refillReaders[1:] {
			var addrs []uint32
			var kinds []uint8
			src, err := NewPackedSource(rr.open(data))
			for err == nil {
				var n int
				if n, err = src.NextChunkKinded(buf, kbuf); n == 0 {
					break
				}
				addrs, kinds = append(addrs, buf[:n]...), append(kinds, kbuf[:n]...)
			}
			if err != nil {
				t.Fatalf("PackedSource over %s rejected what it accepted whole: %v", rr.name, err)
			}
			if !slices.Equal(addrs, gotAddrs) || !slices.Equal(kinds, gotKinds) {
				t.Fatalf("PackedSource over %s decoded %d refs that differ from UnpackTrace's %d", rr.name, len(addrs), len(gotAddrs))
			}
		}

		// Accepted input: the decoded trace must re-encode and round-trip
		// (the canonical encoding of the decode is self-consistent even if
		// the fuzzer found a non-canonical varint spelling).
		repacked, rerr := PackTrace(gotAddrs, gotKinds)
		if rerr != nil {
			t.Fatalf("decoded trace does not re-encode: %v", rerr)
		}
		again, kAgain, rerr := UnpackTrace(repacked)
		if rerr != nil {
			t.Fatalf("re-encoded trace does not decode: %v", rerr)
		}
		if len(again) != len(gotAddrs) {
			t.Fatalf("round trip changed length: %d -> %d", len(gotAddrs), len(again))
		}
		for i := range again {
			if again[i] != gotAddrs[i] || kAgain[i] != gotKinds[i] {
				t.Fatalf("round trip changed ref %d: %#x/%d -> %#x/%d",
					i, gotAddrs[i], gotKinds[i], again[i], kAgain[i])
			}
		}
	})
}
