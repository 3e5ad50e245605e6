package exp

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"palmsim/internal/m68k"
	"palmsim/internal/simerr"
)

func testTrace(n int) []uint32 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// TestTraceSourceStreamsMarshalled: streaming a MarshalDinero blob in odd
// chunk sizes, alternating the address-only and kinded faces on one
// source, reproduces the marshalled addresses and kinds.
func TestTraceSourceStreamsMarshalled(t *testing.T) {
	want := testTrace(10_007)
	kinds := make([]uint8, len(want))
	for i := range kinds {
		kinds[i] = uint8(i % 3) // fetch, read, write
	}
	data, err := MarshalDinero(want, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 13, 4096, 20_000} {
		ds := NewDineroSource(bytes.NewReader(data))
		buf, kbuf := make([]uint32, chunk), make([]uint8, chunk)
		got := 0
		for kinded := false; ; kinded = !kinded {
			var n int
			if kinded {
				n, err = ds.NextChunkKinded(buf, kbuf)
			} else {
				n, err = ds.NextChunk(buf)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i, a := range buf[:n] {
				if a != want[got+i] || kinded && kbuf[i] != kinds[got+i] {
					t.Fatalf("chunk %d: ref %d = %#x/%d, want %#x/%d",
						chunk, got+i, a, kbuf[i], want[got+i], kinds[got+i])
				}
			}
			got += n
		}
		if got != len(want) {
			t.Fatalf("chunk %d: got %d refs, want %d", chunk, got, len(want))
		}
	}
}

// TestDineroSourceStreamsMarshalled: streaming a MarshalDinero blob
// address-only in any chunk size reproduces the marshalled addresses.
func TestDineroSourceStreamsMarshalled(t *testing.T) {
	want := []uint32{0x1000, 0x10000004, 0xFFFFFFFF, 0, 0xABC}
	kinds := []uint8{
		uint8(m68k.Fetch), uint8(m68k.Read), uint8(m68k.Write),
		uint8(m68k.Read), uint8(m68k.Fetch),
	}
	data, err := MarshalDinero(want, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 16} {
		ds := NewDineroSource(bytes.NewReader(data))
		var got []uint32
		buf := make([]uint32, chunk)
		for {
			n, err := ds.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d refs", chunk, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d: ref %d = %#x, want %#x", chunk, i, got[i], want[i])
			}
		}
	}
	// A final line without a trailing newline still parses.
	ds := NewDineroSource(strings.NewReader("2 1000\n0 beef"))
	buf := make([]uint32, 8)
	n, err := ds.NextChunk(buf)
	if err != nil || n != 2 || buf[1] != 0xbeef {
		t.Errorf("newline-less tail: n=%d err=%v buf=%v", n, err, buf[:2])
	}
}

// TestDineroSourceRejectsGarbage: through the address-only face, every
// malformed line, including an address wider than 32 bits, fails with
// ErrCorruptTrace.
func TestDineroSourceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"9 zz\n", "0 xyz\n", "0\n",
		"0 123456789\n", "2 1000\n1 fffffffff\n", "0 \n", "1 12 34\n",
	} {
		ds := NewDineroSource(strings.NewReader(bad))
		_, err := ds.NextChunk(make([]uint32, 4))
		if !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Errorf("%q: err = %v, want ErrCorruptTrace", bad, err)
		}
	}
	// Leading zeros do not count against the 32-bit width.
	ds := NewDineroSource(strings.NewReader("0 00000000deadbeef\n"))
	buf := make([]uint32, 1)
	if n, err := ds.NextChunk(buf); err != nil || n != 1 || buf[0] != 0xdeadbeef {
		t.Errorf("zero-padded address: n=%d err=%v ref=%#x", n, err, buf[0])
	}
}

// readDineroAddrs streams a din blob through the address-only face in
// chunks of chunk references.
func readDineroAddrs(din []byte, chunk int) ([]uint32, error) {
	ds := NewDineroSource(bytes.NewReader(din))
	buf := make([]uint32, chunk)
	var trace []uint32
	for {
		n, err := ds.NextChunk(buf)
		if err != nil || n == 0 {
			return trace, err
		}
		trace = append(trace, buf[:n]...)
	}
}

// FuzzDineroSource: no input panics the din reader and every error is
// ErrCorruptTrace. The address-only face fails where the kinded face
// does and otherwise yields its addresses. An input that parses to its
// end re-parses to the same references after MarshalDinero, and
// marshalling those again gives the same bytes.
func FuzzDineroSource(f *testing.F) {
	for _, seed := range []string{
		"9 zz\n", "0 xyz\n", "0 123456789\n", "2 1000\n1 fffffffff", "0\n",
		"2 1000\n1 fffffffff\n", "0 \n", "1 12 34\n",
	} {
		f.Add([]byte(seed))
	}
	blob, err := MarshalDinero([]uint32{0x1000, 0x10000004, 0xFFFFFFFF, 0},
		[]uint8{uint8(m68k.Fetch), uint8(m68k.Read), uint8(m68k.Write), uint8(m68k.Read)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 7
		addrs, kinds, err := readDinero(data, chunk)
		plain, perr := readDineroAddrs(data, chunk)
		if (err == nil) != (perr == nil) {
			t.Fatalf("kinded face err = %v, address-only face err = %v", err, perr)
		}
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(perr, simerr.ErrCorruptTrace) {
				t.Fatalf("errors %v / %v are not ErrCorruptTrace", err, perr)
			}
			return
		}
		if !slices.Equal(plain, addrs) {
			t.Fatalf("address-only face read %d refs that differ from the kinded face's %d", len(plain), len(addrs))
		}
		out, err := MarshalDinero(addrs, kinds)
		if err != nil {
			t.Fatal(err)
		}
		addrs2, kinds2, err := readDinero(out, chunk)
		if err != nil {
			t.Fatalf("re-parsing the marshalled trace: %v", err)
		}
		if !slices.Equal(addrs2, addrs) || !slices.Equal(kinds2, kinds) {
			t.Fatal("marshalled trace re-parses to different references")
		}
		again, err := MarshalDinero(addrs2, kinds2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) {
			t.Fatal("marshalling the re-parsed trace gave different bytes")
		}
	})
}
