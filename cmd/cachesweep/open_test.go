// Trace-file opener tests: -trace reads the packed format only, through
// openTraceFile and dtrace.NewPackedSource. Indexed and index-less packed
// files stream every reference; anything else, the raw PALMTRC1 format,
// a din file and junk after a packed trace included, fails as
// ErrCorruptTrace.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"palmsim/internal/dtrace"
	"palmsim/internal/obs"
	"palmsim/internal/simerr"
	"palmsim/internal/sweep"
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

// writeRawTrace writes trace in the raw PALMTRC1 layout earlier palmsim
// versions wrote: the magic, a big-endian reference count, then four
// big-endian bytes per address.
func writeRawTrace(t *testing.T, trace []uint32) string {
	t.Helper()
	b := binary.BigEndian.AppendUint32([]byte("PALMTRC1"), uint32(len(trace)))
	for _, a := range trace {
		b = binary.BigEndian.AppendUint32(b, a)
	}
	return writeFile(t, "session.trace", b)
}

// readAll streams src to its end.
func readAll(src sweep.Source) ([]uint32, error) {
	var got []uint32
	buf := make([]uint32, 2048)
	for {
		n, err := src.NextChunk(buf)
		if err != nil || n == 0 {
			return got, err
		}
		got = append(got, buf[:n]...)
	}
}

// TestOpenTraceSourceSniffsFormats: -trace sniffs no format. A raw
// PALMTRC1 file fails in the packed reader with ErrCorruptTrace ("not a
// packed trace"), the command exits 1, and the opener closes the file.
func TestOpenTraceSourceSniffsFormats(t *testing.T) {
	raw := writeRawTrace(t, seekTestTrace(2_003))
	if !testing.Short() {
		out, err := runCachesweep(t, "-trace "+raw)
		if code := exitCode(t, err); code != 1 {
			t.Errorf("exit code = %d, want 1\n%s", code, out)
		}
		if !strings.Contains(out, "not a packed trace") {
			t.Errorf("error does not name the format:\n%s", out)
		}
	}

	before := openFDs(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src, f, err := openTraceFile(raw)
	if !errors.Is(err, simerr.ErrCorruptTrace) || !strings.Contains(err.Error(), "not a packed trace") {
		t.Fatalf("err = %v, want ErrCorruptTrace: not a packed trace", err)
	}
	if src != nil || f != nil {
		t.Error("opener returned a source or a file with its error")
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d open descriptors before the open, %d after", before, after)
	}
}

// TestOpenSeekableTraceFile: openTraceFile streams an on-disk indexed
// .ptrace, accepting the PALMIDX1 footer after the end marker, and the
// same trace written without an index, reference for reference.
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
	for _, file := range []struct {
		name string
		data []byte
	}{{"indexed.ptrace", indexed}, {"plain.ptrace", plain}} {
		src, f, err := openTraceFile(writeFile(t, file.name, file.data))
		if err != nil {
			t.Fatalf("%s: %v", file.name, err)
		}
		got, err := readAll(src)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file.name, err)
		}
		if !slices.Equal(got, trace) {
			t.Fatalf("%s: streamed %d refs differ from the %d packed", file.name, len(got), len(trace))
		}
	}
}

// TestOpenTraceSourceRejectsTrailingGarbage: junk after the packed
// end-of-trace marker fails as corruption while streaming, not as a
// clean end of trace. The index footer makes trailing bytes legitimate,
// so anything else there is damage.
func TestOpenTraceSourceRejectsTrailingGarbage(t *testing.T) {
	packed, err := dtrace.PackTrace(seekTestTrace(10_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	src, f, err := openTraceFile(writeFile(t, "junk.ptrace", append(packed, "leftover junk"...)))
	if err != nil {
		t.Fatalf("openTraceFile: %v", err)
	}
	defer f.Close()
	_, err = readAll(src)
	if err == nil {
		t.Fatal("trailing garbage decoded to a clean end of trace")
	}
	if !errors.Is(err, simerr.ErrCorruptTrace) {
		t.Fatalf("error %v is not ErrCorruptTrace", err)
	}
	if !strings.Contains(err.Error(), "index footer") {
		t.Fatalf("error %q does not identify the trailing bytes", err)
	}
}

// TestTraceSourceRejectsGarbage: a din file or an empty file given to
// -trace is rejected as ErrCorruptTrace, not parsed, and nothing is
// printed before the error.
func TestTraceSourceRejectsGarbage(t *testing.T) {
	for _, path := range []string{writeTestDin(t), writeFile(t, "empty.ptrace", nil)} {
		c := config{traceFile: path, policy: "LRU", algo: "auto", l2Assoc: "4", hierarchy: "nine", obsFlags: &obs.Flags{}}
		var err error
		stdout := captureStdout(t, func() { err = sweepMain(context.Background(), &c) })
		if !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Errorf("%s: err = %v, want ErrCorruptTrace", path, err)
		}
		if stdout != "" {
			t.Errorf("%s: printed before rejecting the file:\n%s", path, stdout)
		}
	}
}
