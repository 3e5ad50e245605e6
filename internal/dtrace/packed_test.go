package dtrace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"palmsim/internal/simerr"
)

// packedTestTrace mixes the access patterns the format is tuned for:
// sequential fetches in the flash window, stack-like RAM traffic, and
// scattered heap references, with kinds 0-2.
func packedTestTrace(n int, seed int64) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint32, n)
	kinds := make([]uint8, n)
	pc := uint32(0x10000000)
	sp := uint32(0x0003F000)
	for i := range addrs {
		switch rng.Intn(8) {
		case 0: // branch
			pc = 0x10000000 + uint32(rng.Intn(1<<20))&^1
			addrs[i], kinds[i] = pc, 0
		case 1, 2: // stack read/write
			addrs[i], kinds[i] = sp+uint32(rng.Intn(64))*4, uint8(1+rng.Intn(2))
		case 3: // heap
			addrs[i], kinds[i] = uint32(rng.Intn(1<<22)), uint8(1+rng.Intn(2))
		default: // sequential fetch
			pc += 2
			addrs[i], kinds[i] = pc, 0
		}
	}
	return addrs, kinds
}

// TestPackedRoundTrip: PackTrace -> UnpackTrace must be the identity on
// addresses and kinds, with and without a kind stream.
func TestPackedRoundTrip(t *testing.T) {
	addrs, kinds := packedTestTrace(20_000, 42)
	for _, withKinds := range []bool{true, false} {
		k := kinds
		if !withKinds {
			k = nil
		}
		packed, err := PackTrace(addrs, k)
		if err != nil {
			t.Fatal(err)
		}
		gotAddrs, gotKinds, err := UnpackTrace(packed)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotAddrs) != len(addrs) {
			t.Fatalf("kinds=%v: %d refs, want %d", withKinds, len(gotAddrs), len(addrs))
		}
		for i := range addrs {
			if gotAddrs[i] != addrs[i] {
				t.Fatalf("kinds=%v: ref %d = %#x, want %#x", withKinds, i, gotAddrs[i], addrs[i])
			}
			want := uint8(0)
			if withKinds {
				want = kinds[i]
			}
			if gotKinds[i] != want {
				t.Fatalf("kinds=%v: kind %d = %d, want %d", withKinds, i, gotKinds[i], want)
			}
		}
	}
}

// TestPackedWriterMatchesPackTrace: the streaming writer must emit the
// one-shot encoder's bytes, followed only by the PALMIDX1 footer.
func TestPackedWriterMatchesPackTrace(t *testing.T) {
	addrs, kinds := packedTestTrace(5_000, 7)
	want, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven runs, so runs straddle block boundaries.
	for lo := 0; lo < len(addrs); lo += 777 {
		hi := min(lo+777, len(addrs))
		if err := w.WriteRefs(addrs[lo:hi], kinds[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Refs() != uint64(len(addrs)) {
		t.Errorf("writer counted %d refs, want %d", w.Refs(), len(addrs))
	}
	if !bytes.HasPrefix(buf.Bytes(), want) {
		t.Fatalf("streamed bytes (%d) do not start with PackTrace's (%d)", buf.Len(), len(want))
	}
	if _, err := parseIndexFooter(buf.Bytes()[len(want):], uint64(len(want)), uint64(len(addrs))); err != nil {
		t.Fatalf("streamed bytes after PackTrace's: %v", err)
	}
}

// TestPackedSourceStreamsAllChunkSizes: the streaming reader must
// reproduce the addresses under every chunk schedule and then stay
// exhausted.
func TestPackedSourceStreamsAllChunkSizes(t *testing.T) {
	addrs, kinds := packedTestTrace(9_973, 11)
	packed, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1024, 20_000} {
		src, err := NewPackedSource(bytes.NewReader(packed))
		if err != nil {
			t.Fatal(err)
		}
		var got []uint32
		buf := make([]uint32, chunk)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(addrs) {
			t.Fatalf("chunk %d: streamed %d refs, want %d", chunk, len(got), len(addrs))
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("chunk %d: ref %d = %#x, want %#x", chunk, i, got[i], addrs[i])
			}
		}
		if n, err := src.NextChunk(buf); n != 0 || err != nil {
			t.Fatalf("chunk %d: NextChunk after EOF = %d, %v", chunk, n, err)
		}
	}
}

// TestPackedRejectsGarbage: bad magic and any truncation — mid-record,
// or cut exactly at a record or block boundary (which a length-less
// varint stream could not distinguish from a shorter trace) — must
// error, not decode silently.
func TestPackedRejectsGarbage(t *testing.T) {
	if _, err := NewPackedSource(bytes.NewReader([]byte("PALMTRC1xxxx"))); err == nil {
		t.Error("raw-format magic accepted as packed")
	}
	if _, _, err := UnpackTrace([]byte("short")); err == nil {
		t.Error("short header accepted")
	}
	addrs, kinds := packedTestTrace(5_000, 3) // > blockRefs: multi-block
	packed, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= 3; cut++ {
		truncated := packed[:len(packed)-cut]
		if _, _, err := UnpackTrace(truncated); err == nil {
			t.Errorf("cut=%d: truncated trace accepted by UnpackTrace", cut)
		}
		src, err := NewPackedSource(bytes.NewReader(truncated))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]uint32, 1024)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				break
			}
			if n == 0 {
				t.Errorf("cut=%d: truncated trace accepted by PackedSource", cut)
				break
			}
		}
	}
}

// TestPackedEmptyTrace: zero references round-trip to an immediate clean
// end of stream.
func TestPackedEmptyTrace(t *testing.T) {
	packed, err := PackTrace(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.NextChunk(make([]uint32, 8)); n != 0 || err != nil {
		t.Fatalf("NextChunk = %d, %v", n, err)
	}
}

// TestPackedSmallerThanRaw: on the synthetic desktop trace — hostile
// compared to a Palm session, with its megabytes-wide heap — the packed
// form must still beat 4 bytes/ref by a wide margin. (The >=3x session-
// trace target is enforced by TestPackedTraceCompressionOnSessionTrace
// at the repository root; measured ratios live in EXPERIMENTS.md.)
func TestPackedSmallerThanRaw(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Refs = 100_000
	trace := Generate(cfg)
	packed, err := PackTrace(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * len(trace)
	if len(packed)*2 >= raw {
		t.Errorf("packed %d bytes vs raw %d: less than 2x reduction on the desktop trace",
			len(packed), raw)
	}
	t.Logf("desktop trace: raw %d bytes, packed %d bytes (%.2fx)",
		raw, len(packed), float64(raw)/float64(len(packed)))
}

// TestPackedSourceRefillSplits: a record whose bytes straddle a refill of
// the reader's buffer decodes as it does whole, wherever the refill
// falls. Each trace holds a 10-byte record word (a valid, non-canonical
// spelling) and its kind byte between two short records; the input is
// split into two reads at every offset. A valid trace must decode to
// UnpackTrace's references, kinds and byte count; a corrupt one must fail
// with UnpackTrace's ordinal and the unsplit stream's exact error.
func TestPackedSourceRefillSplits(t *testing.T) {
	var st packedState
	head := craftRecord(&st, 0x1000, 0)
	// zigzag(0)<<3 | hasKind | ctx 1, spelled in ten bytes.
	long := []byte{0x80 | 5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}
	trace := func(word []byte, kind byte) []byte {
		out := append([]byte(PackedMagic), 3)
		out = append(out, head...)
		out = append(out, word...)
		out = append(out, kind)
		return append(out, 0x00, 0) // a one-byte record (dd 0, context 0), then the end marker
	}
	overflow := append(bytes.Clone(long[:9]), 0x02)
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"valid", trace(long, 2), ""},
		{"invalid kind byte", trace(long, 3), "invalid kind byte 3"},
		{"record word overflows", trace(overflow, 1), "overflows"},
	} {
		wantA, wantK, uerr := UnpackTrace(tc.data)
		whole, werr := streamKinded(bytes.NewReader(tc.data))
		if (uerr == nil) != (tc.wantErr == "") || (werr == nil) != (tc.wantErr == "") {
			t.Fatalf("%s: UnpackTrace err = %v, PackedSource err = %v", tc.name, uerr, werr)
		}
		var ue *simerr.Error
		if uerr != nil && !errors.As(uerr, &ue) {
			t.Fatalf("%s: UnpackTrace err = %v, want a simerr.Error", tc.name, uerr)
		}
		for at := 0; at <= len(tc.data); at++ {
			got, err := streamKinded(io.MultiReader(bytes.NewReader(tc.data[:at]), bytes.NewReader(tc.data[at:])))
			if tc.wantErr != "" {
				var se *simerr.Error
				if err == nil || err.Error() != werr.Error() || !strings.Contains(err.Error(), tc.wantErr) ||
					!errors.As(err, &se) || se.Ref != ue.Ref {
					t.Errorf("%s, split at %d: err = %v, want %v at ref %d", tc.name, at, err, werr, ue.Ref)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, split at %d: %v", tc.name, at, err)
			}
			if !slices.Equal(got.addrs, wantA) || !slices.Equal(got.kinds, wantK) || got.bytes != whole.bytes {
				t.Errorf("%s, split at %d: %x/%v after %d bytes, want %x/%v after %d",
					tc.name, at, got.addrs, got.kinds, got.bytes, wantA, wantK, whole.bytes)
			}
		}
	}
}

// decoded is what a PackedSource yielded, and the bytes it consumed.
type decoded struct {
	addrs []uint32
	kinds []uint8
	bytes uint64
}

// streamKinded decodes r to its end through NextChunkKinded, two
// references at a time.
func streamKinded(r io.Reader) (decoded, error) {
	var d decoded
	src, err := NewPackedSource(r)
	if err != nil {
		return d, err
	}
	buf, kinds := make([]uint32, 2), make([]uint8, 2)
	for {
		n, err := src.NextChunkKinded(buf, kinds)
		d.addrs, d.kinds, d.bytes = append(d.addrs, buf[:n]...), append(d.kinds, kinds[:n]...), src.r.n
		if err != nil || n == 0 {
			return d, err
		}
	}
}
