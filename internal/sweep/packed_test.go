// Packed-trace sweeps: the engine reading a PALMPKD1 trace through
// dtrace.PackedSource — the decoder cachesweep -trace and the benchmark
// use — must match the per-configuration oracles for every engine,
// worker count and chunk size, and must fail and cancel cleanly.
// The Partitioned test names date from a range-partitioned decoder these
// tests once covered; it is gone, and the names stay so -run 'Partition'
// selections keep matching.
package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/simerr"
)

// packFixed packs the deterministic address-only test trace with an
// index.
func packFixed(t *testing.T, n int) ([]uint32, []byte) {
	t.Helper()
	trace := fixedTrace(n)
	data, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trace, data
}

// packKinded packs the kinded test trace with an index and a tick mark
// every 1000 references.
func packKinded(t *testing.T, n int) ([]uint32, []uint8, []byte) {
	t.Helper()
	trace, kinds := kindedFixedTrace(n)
	var marks []dtrace.TickMark
	for r := 0; r < n; r += 1000 {
		marks = append(marks, dtrace.TickMark{Ref: uint64(r), Tick: uint64(r / 1000)})
	}
	data, err := dtrace.PackTraceIndexed(trace, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}
	return trace, kinds, data
}

// packedSource opens a fresh streaming decoder over data.
func packedSource(t *testing.T, data []byte) *dtrace.PackedSource {
	t.Helper()
	src, err := dtrace.NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// truncateInBlock cuts data, trace packed without kinds, halfway through
// block i, so its decoder fails about 4096·i + 2048 references in. A
// block starts where PackTrace of the references before it puts its end
// marker.
func truncateInBlock(t *testing.T, trace []uint32, data []byte, i int) []byte {
	t.Helper()
	if len(trace) < 4096*(i+2) {
		t.Fatalf("trace has %d references, need %d", len(trace), 4096*(i+2))
	}
	var start [2]int
	for j := range start {
		prefix, err := dtrace.PackTrace(trace[:4096*(i+j)], nil)
		if err != nil {
			t.Fatal(err)
		}
		start[j] = len(prefix) - 1
	}
	return data[:(start[0]+start[1])/2]
}

// optGrid is diffGeometries under Belady's MIN with write policy w.
func optGrid(w cache.WritePolicy) []cache.Config {
	var cfgs []cache.Config
	for _, g := range diffGeometries() {
		g.Policy, g.Write = cache.OPT, w
		cfgs = append(cfgs, g)
	}
	return cfgs
}

// TestPartitionedSourceStreamsInOrder: a kinded packed trace with tick
// marks, read through NextChunkKinded at chunk sizes that split the
// encoder's 4096-reference blocks (7, 1000) and that do not, sweeps the
// full policy × write-policy grid to the direct oracle's results.
func TestPartitionedSourceStreamsInOrder(t *testing.T) {
	trace, kinds, data := packKinded(t, 3*4096+1234)
	cfgs := policyWriteGrid()
	want := directKindedOracle(t, cfgs, trace, kinds)
	for _, chunkRefs := range []int{7, 1000, 4096, 65536} {
		got, err := Run(context.Background(), cfgs, packedSource(t, data),
			Options{Workers: 4, ChunkRefs: chunkRefs})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunkRefs, err)
		}
		compareResults(t, fmt.Sprintf("chunk=%d", chunkRefs), cfgs, got, want)
	}
}

// TestRunPartitionedMatchesSerial is the acceptance gate for packed
// sweeps: an address-only indexed trace swept through both engines at
// both worker counts must equal the serial cache.Sweep loop in every
// counter.
func TestRunPartitionedMatchesSerial(t *testing.T) {
	trace, data := packFixed(t, 200_000)
	cfgs := cache.PaperSweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineStack, EngineDirect} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", engine, workers)
			got, err := Run(context.Background(), cfgs, packedSource(t, data),
				Options{Workers: workers, Engine: engine})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %v diverged:\n got %+v\nwant %+v", name, cfgs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestPartitionedSourceErrorPropagates: a packed trace cut mid-block must
// fail the sweep as corruption, both while the fan-out streams it (LRU)
// and while OPT materializes it, at every worker count.
func TestPartitionedSourceErrorPropagates(t *testing.T) {
	trace, data := packFixed(t, 5*4096)
	cut := truncateInBlock(t, trace, data, 1)
	for _, grid := range []struct {
		name string
		cfgs []cache.Config
	}{{"lru", cache.PaperSweep()}, {"opt", optGrid(cache.WriteIgnore)}} {
		for _, workers := range []int{1, 4} {
			_, err := Run(context.Background(), grid.cfgs, packedSource(t, cut),
				Options{Workers: workers, ChunkRefs: 1000})
			if !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Errorf("%s/workers=%d: err = %v, want ErrCorruptTrace", grid.name, workers, err)
			}
		}
	}
}

// TestPartitionedSourceCloseEarly: a sweep stopped early — by a corrupt
// trace mid-stream, or by cancellation while OPT materializes — must
// return the matching error and leave no goroutine behind.
func TestPartitionedSourceCloseEarly(t *testing.T) {
	trace, data := packFixed(t, 5*4096)
	cut := truncateInBlock(t, trace, data, 1)
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 4, 8} {
		_, err := Run(context.Background(), cache.PaperSweep(), packedSource(t, cut),
			Options{Workers: workers, ChunkRefs: 1000})
		if !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Fatalf("workers=%d: err = %v, want ErrCorruptTrace", workers, err)
		}
	}
	settleGoroutines(t, base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfter{Source: packedSource(t, data), after: 2, cancel: cancel}
	_, err := Run(ctx, optGrid(cache.WriteIgnore), src, Options{Workers: 4, ChunkRefs: 1000})
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("canceled OPT materialize: err = %v, want ErrCanceled", err)
	}
	if src.chunks != 2 {
		t.Errorf("materialize read %d chunks after the cancel at chunk 2", src.chunks)
	}
	settleGoroutines(t, base)
}

// TestRunPartitionedCheckpointResume: a sweep over a packed trace,
// canceled after five chunks of 1000 references, stops at chunk 5 with
// no goroutine left. Run again over a trace cut inside its first block
// it fails as corruption; run again over a fresh decoder, at a chunk
// size that does not divide the first run's, it matches the serial loop.
func TestRunPartitionedCheckpointResume(t *testing.T) {
	trace, data := packFixed(t, 120_000)
	cfgs := cache.PaperSweep()[:8]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptRun(t, ctx, singles(cfgs), &cancelAfter{Source: packedSource(t, data), after: 5, cancel: cancel},
		Options{Workers: 2, ChunkRefs: 1000}, simerr.ErrCanceled, 5)

	opts := Options{Workers: 2, ChunkRefs: 4096}
	_, err = Run(context.Background(), cfgs, packedSource(t, truncateInBlock(t, trace, data, 0)), opts)
	if !errors.Is(err, simerr.ErrCorruptTrace) {
		t.Fatalf("rerun over a trace cut inside the first block: err = %v, want ErrCorruptTrace", err)
	}
	got, err := Run(context.Background(), cfgs, packedSource(t, data), opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "rerun", cfgs, got, want)
}

// cancelAfter wraps a Source and fires cancel after a set number of
// chunks, letting the producer's next ctx poll land mid-sweep.
type cancelAfter struct {
	Source
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *cancelAfter) NextChunk(buf []uint32) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	return s.Source.NextChunk(buf)
}
