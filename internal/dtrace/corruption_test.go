// Corruption handling for the packed trace format: every malformed input
// — truncated counted blocks, bad magic, invalid escape bytes, mid-varint
// EOF — must fail loudly in both the one-shot and the streaming decoder.
// A cache sweep fed a silently mis-decoded trace produces plausible wrong
// numbers, which is the worst failure mode a measurement tool can have.
package dtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

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
// must be rejected by UnpackTrace and by PackedSource, and must not open
// as an indexed trace; wantErr is a substring of UnpackTrace's error.
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
	idx, _ := parseIndexFooter(idxTrace[footOff:], footOff, 4, true)
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
			// Tail-probing index open: either no footer at the end, or a
			// corrupt one.
			if _, err := OpenIndexedBytes(tc.data); !errors.Is(err, ErrNoIndex) && !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Errorf("OpenIndexedBytes: err = %v, want ErrNoIndex or ErrCorruptTrace", err)
			}
			// Streaming decoder: the header may already be rejected; past
			// that, some NextChunk call must error before clean EOF.
			src, err := NewPackedSource(bytes.NewReader(tc.data))
			if err != nil {
				if !strings.Contains(err.Error(), "not a packed trace") {
					t.Errorf("NewPackedSource error %q", err)
				}
				return
			}
			buf := make([]uint32, 512)
			for {
				n, err := src.NextChunk(buf)
				if err != nil {
					return // failed loudly, as required
				}
				if n == 0 {
					t.Error("PackedSource decoded corrupt input to clean EOF")
					return
				}
			}
		})
	}
}

// TestPackedWriterRejectsInvalidKind: the writer must refuse kinds outside
// the m68k.Access range rather than minting traces readers reject.
func TestPackedWriterRejectsInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRef(0x100, 3); err == nil {
		t.Error("WriteRef accepted kind 3")
	}
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
	for i := range addrs {
		if err := w.WriteRef(addrs[i], kinds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != uint64(buf.Len()) {
		t.Errorf("Bytes() = %d, encoded %d", w.Bytes(), buf.Len())
	}
}

// FuzzUnpackTrace drives the one-shot and streaming decoders over
// arbitrary bytes: they must never panic, must agree on accept/reject,
// and anything UnpackTrace accepts must re-encode and round-trip.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		gotAddrs, gotKinds, err := UnpackTrace(data)

		// The streaming decoder must agree with the one-shot decoder.
		src, serr := NewPackedSource(bytes.NewReader(data))
		if serr != nil {
			if err == nil {
				t.Fatalf("UnpackTrace accepted what NewPackedSource rejected: %v", serr)
			}
			return
		}
		var streamed int
		buf := make([]uint32, 333)
		for {
			n, nerr := src.NextChunk(buf)
			streamed += n
			if nerr != nil {
				if err == nil {
					t.Fatalf("UnpackTrace accepted what PackedSource rejected: %v", nerr)
				}
				return
			}
			if n == 0 {
				break
			}
		}
		if err != nil {
			t.Fatalf("PackedSource decoded to clean EOF what UnpackTrace rejected: %v", err)
		}
		if streamed != len(gotAddrs) {
			t.Fatalf("PackedSource streamed %d refs, UnpackTrace decoded %d", streamed, len(gotAddrs))
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
