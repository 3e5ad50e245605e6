// Packed-file open paths: the format sniffer must stream indexed and
// index-less packed traces from disk alike, and reject streams with junk
// after a valid packed trace instead of decoding to a silent EOF.
package exp

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"palmsim/internal/dtrace"
	"palmsim/internal/simerr"
)

// seekTestTrace builds a deterministic multi-block address trace.
func seekTestTrace(n int) []uint32 {
	rng := rand.New(rand.NewSource(1405))
	trace := make([]uint32, n)
	for i := range trace {
		trace[i] = uint32(rng.Intn(1 << 20))
	}
	return trace
}

// TestOpenTraceSourceRejectsTrailingGarbage: junk after the packed
// end-of-trace marker must fail as corruption during streaming, not
// decode to a clean EOF — the index footer makes trailing bytes
// legitimate, so anything else there is damage.
func TestOpenTraceSourceRejectsTrailingGarbage(t *testing.T) {
	packed, err := dtrace.PackTrace(seekTestTrace(10_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := append(append([]byte(nil), packed...), []byte("leftover junk")...)
	src, format, err := OpenTraceSource(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("OpenTraceSource: %v", err)
	}
	if format != "packed" {
		t.Fatalf("format = %q, want packed", format)
	}
	buf := make([]uint32, 4096)
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Fatalf("error %v is not ErrCorruptTrace", err)
			}
			if !strings.Contains(err.Error(), "index footer") {
				t.Fatalf("error %q does not identify the trailing bytes", err)
			}
			return
		}
		if n == 0 {
			t.Fatal("trailing garbage decoded to clean EOF")
		}
	}
}

// TestOpenSeekableTraceFile: OpenTraceSource over an on-disk indexed
// .ptrace — the *os.File path cachesweep -trace takes — streams every
// reference and accepts the PALMIDX1 footer after the end marker; the
// same trace written without an index streams the same references.
func TestOpenSeekableTraceFile(t *testing.T) {
	trace := seekTestTrace(3*4096 + 500)
	indexed, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(indexed, []byte("PALMIDX1")) {
		t.Fatal("indexed trace carries no PALMIDX1 footer")
	}
	plain, err := dtrace.PackTrace(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, file := range []struct {
		name string
		data []byte
	}{{"indexed.ptrace", indexed}, {"plain.ptrace", plain}} {
		path := filepath.Join(dir, file.name)
		if err := os.WriteFile(path, file.data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		src, format, err := OpenTraceSource(f)
		if err != nil {
			t.Fatalf("%s: %v", file.name, err)
		}
		if format != "packed" {
			t.Fatalf("%s: format = %q, want packed", file.name, format)
		}
		var got []uint32
		buf := make([]uint32, 2048)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				t.Fatalf("%s: %v", file.name, err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		f.Close()
		if len(got) != len(trace) {
			t.Fatalf("%s: streamed %d refs, want %d", file.name, len(got), len(trace))
		}
		for i := range trace {
			if got[i] != trace[i] {
				t.Fatalf("%s: ref %d = %#x, want %#x", file.name, i, got[i], trace[i])
			}
		}
	}
}
