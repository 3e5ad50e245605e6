package palmsim_test

import (
	"bytes"
	"testing"

	"palmsim/internal/dtrace"
)

// TestPackedTraceCompressionOnSessionTrace is the acceptance gate for the
// packed trace format: on a real collect+replay session trace (the same
// one the benchmarks use), the address-only packed encoding must be at
// least 3x smaller than a plain array of 4-byte addresses behind a
// 12-byte header, and the streaming source must hand the sweep engine
// exactly the original addresses.
func TestPackedTraceCompressionOnSessionTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	_, trace := benchSetup(t)
	if len(trace) == 0 {
		t.Fatal("empty session trace")
	}
	raw := 4*len(trace) + 12
	packed, err := dtrace.PackTrace(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(raw) / float64(len(packed))
	if ratio < 3 {
		t.Errorf("packed session trace only %.2fx smaller than raw (%d vs %d bytes), want >=3x",
			ratio, len(packed), raw)
	}
	t.Logf("session trace: %d refs, raw %d bytes, packed %d bytes (%.2fx)",
		len(trace), raw, len(packed), ratio)

	src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 64<<10)
	i := 0
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, a := range buf[:n] {
			if i >= len(trace) || a != trace[i] {
				t.Fatalf("decoded ref %d = %#x, want %#x", i, a, trace[i])
			}
			i++
		}
	}
	if i != len(trace) {
		t.Fatalf("decoded %d refs, want %d", i, len(trace))
	}
}
