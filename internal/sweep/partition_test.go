// Partitioned-sweep determinism: K concurrent range decoders multiplexed
// in trace order must be indistinguishable — bit for bit — from a serial
// decode, for every K, worker count and engine, and must shut down
// cleanly on errors and early closes.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
)

// seekableBytes adapts an in-memory indexed packed trace to
// SeekableTrace (the production adapter lives in internal/exp; tests
// stay below it to avoid an import cycle).
type seekableBytes struct{ t *dtrace.IndexedTrace }

func openSeekableBytes(t *testing.T, data []byte) seekableBytes {
	t.Helper()
	it, err := dtrace.OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return seekableBytes{t: it}
}

func (s seekableBytes) TotalRefs() uint64          { return s.t.TotalRefs() }
func (s seekableBytes) SplitPoints(k int) []uint64 { return s.t.SplitPoints(k) }
func (s seekableBytes) OpenRange(startRef, n uint64) (RangeSource, error) {
	src, err := s.t.OpenRange(startRef, n)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// packFixed packs the deterministic test trace with an index.
func packFixed(t *testing.T, n int) ([]uint32, []byte) {
	t.Helper()
	trace := fixedTrace(n)
	data, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trace, data
}

// TestPartitionedSourceStreamsInOrder: the multiplexed source must yield
// exactly the serial reference sequence for every partition count and
// consumer chunk size, including sizes unaligned with the hand-off
// buffers.
func TestPartitionedSourceStreamsInOrder(t *testing.T) {
	trace, data := packFixed(t, 3*4096+1234)
	st := openSeekableBytes(t, data)
	for _, k := range []int{1, 2, 4, 8, 64} {
		for _, bufRefs := range []int{1 << 16, 4096, 1000, 7} {
			src, err := NewPartitionedSource(st, k, 4096)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint32
			buf := make([]uint32, bufRefs)
			for {
				n, err := src.NextChunk(buf)
				if err != nil {
					t.Fatalf("k=%d buf=%d: %v", k, bufRefs, err)
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if err := src.Close(); err != nil {
				t.Fatalf("k=%d: Close: %v", k, err)
			}
			if len(got) != len(trace) {
				t.Fatalf("k=%d buf=%d: %d refs, want %d", k, bufRefs, len(got), len(trace))
			}
			for i := range trace {
				if got[i] != trace[i] {
					t.Fatalf("k=%d buf=%d: ref %d = %#x, want %#x", k, bufRefs, i, got[i], trace[i])
				}
			}
		}
	}
}

// runPartitioned sweeps configurations partitioned, as one-level
// hierarchies.
func runPartitioned(ctx context.Context, cfgs []cache.Config, t SeekableTrace, opts Options) ([]cache.Result, error) {
	hrs, err := RunPartitionedHierarchies(ctx, singles(cfgs), t, opts)
	if err != nil {
		return nil, err
	}
	return l1Results(hrs), nil
}

// TestRunPartitionedMatchesSerial is the acceptance gate: partitioned
// sweeps at K ∈ {1,4,8} across engines and worker counts must equal the
// serial cache.Sweep loop in every counter.
func TestRunPartitionedMatchesSerial(t *testing.T) {
	trace, data := packFixed(t, 200_000)
	st := openSeekableBytes(t, data)
	cfgs := cache.PaperSweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineStack, EngineDirect} {
		for _, workers := range []int{1, 4} {
			for _, k := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/workers=%d/partitions=%d", engine, workers, k)
				got, err := runPartitioned(context.Background(), cfgs, st,
					Options{Workers: workers, Engine: engine, Partitions: k})
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
}

// errAfterSource fails with a sentinel after yielding a few refs.
type errAfterSource struct {
	left int
	err  error
}

func (s *errAfterSource) NextChunk(buf []uint32) (int, error) {
	if s.left <= 0 {
		return 0, s.err
	}
	n := len(buf)
	if n > s.left {
		n = s.left
	}
	for i := 0; i < n; i++ {
		buf[i] = uint32(i)
	}
	s.left -= n
	return n, nil
}

func (s *errAfterSource) Close() error { return nil }

// errTrace is a SeekableTrace whose ranges fail mid-decode.
type errTrace struct{ err error }

func (e errTrace) TotalRefs() uint64          { return 40_000 }
func (e errTrace) SplitPoints(k int) []uint64 { return []uint64{0, 10_000, 20_000, 40_000} }
func (e errTrace) OpenRange(startRef, n uint64) (RangeSource, error) {
	return &errAfterSource{left: 5_000, err: e.err}, nil
}

// TestPartitionedSourceErrorPropagates: a decode error in any range must
// surface from NextChunk, stick, and leave Close clean.
func TestPartitionedSourceErrorPropagates(t *testing.T) {
	sentinel := errors.New("range decoder exploded")
	src, err := NewPartitionedSource(errTrace{err: sentinel}, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 2048)
	var ferr error
	for i := 0; i < 100 && ferr == nil; i++ {
		_, ferr = src.NextChunk(buf)
	}
	if !errors.Is(ferr, sentinel) {
		t.Fatalf("error = %v, want the range decoder's", ferr)
	}
	if _, err := src.NextChunk(buf); !errors.Is(err, sentinel) {
		t.Errorf("error not sticky: %v", err)
	}
	if err := src.Close(); err != nil {
		t.Errorf("Close after error: %v", err)
	}
}

// TestPartitionedSourceCloseEarly: closing with most of the trace
// unread must not deadlock or leak decoder goroutines.
func TestPartitionedSourceCloseEarly(t *testing.T) {
	_, data := packFixed(t, 4*4096)
	st := openSeekableBytes(t, data)
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		src, err := NewPartitionedSource(st, 4, 256)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]uint32, 100)
		if _, err := src.NextChunk(buf); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base)
}

// TestRunPartitionedCheckpointResume: the partitioned source composes
// with PR 5's checkpoint machinery — cancel mid-sweep, then resume over
// a fresh partitioned source, bit-identical to an uninterrupted run.
func TestRunPartitionedCheckpointResume(t *testing.T) {
	trace, data := packFixed(t, 120_000)
	st := openSeekableBytes(t, data)
	cfgs := cache.PaperSweep()[:8]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir() + "/partition.ckpt"

	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Workers: 2, Partitions: 4, ChunkRefs: 8192,
		CheckpointPath: ckpt, CheckpointEveryChunks: 2}
	src, err := NewPartitionedSource(st, opts.Partitions, opts.chunkRefs())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, cfgs, &cancelAfter{Source: src, after: 5, cancel: cancel}, opts)
	src.Close()
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}

	opts.Resume = true
	got, err := runPartitioned(context.Background(), cfgs, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed partitioned sweep diverged at %v:\n got %+v\nwant %+v", cfgs[i], got[i], want[i])
		}
	}
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
