package sweep

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"palmsim/internal/cache"
	"palmsim/internal/simerr"
)

// cancelSource delivers an endless trace and fires cancel after a set
// number of chunks, so the producer's next ctx poll lands mid-sweep.
type cancelSource struct {
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *cancelSource) NextChunk(buf []uint32) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	for i := range buf {
		buf[i] = uint32(s.chunks*31+i) % (1 << 18)
	}
	return len(buf), nil
}

// settleGoroutines polls until the goroutine count drops back to at most
// base (plus a small slack for runtime background work), failing if it
// never does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; cheap in tests
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d alive, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidSweepNoGoroutineLeak cancels parallel sweeps at several
// chunk boundaries and asserts (a) the error is the structured
// cancellation, and (b) every worker goroutine shuts down.
func TestCancelMidSweepNoGoroutineLeak(t *testing.T) {
	cfgs := cache.PaperSweep()
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 4, 8} {
		for _, after := range []int{1, 3, 9} {
			ctx, cancel := context.WithCancel(context.Background())
			src := &cancelSource{after: after, cancel: cancel}
			_, err := Run(ctx, cfgs, src, Options{Workers: workers, ChunkRefs: 512})
			cancel()
			if !errors.Is(err, simerr.ErrCanceled) {
				t.Fatalf("workers=%d after=%d: err = %v, want ErrCanceled", workers, after, err)
			}
			if !simerr.IsCanceled(err) {
				t.Fatalf("workers=%d after=%d: IsCanceled false for %v", workers, after, err)
			}
		}
	}
	settleGoroutines(t, base)
}

// TestCancelSerialSweep cancels one-worker sweeps, which run the same
// fan-out as every other worker count: the cancellation is structured
// and carries its chunk, no goroutine outlives the run, and a one-worker
// rerun of a sweep canceled after three chunks gives the serial
// cache.Sweep results.
func TestCancelSerialSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelSource{after: 2, cancel: cancel}
	_, err := Run(ctx, cache.PaperSweep()[:4], src, Options{Workers: 1, ChunkRefs: 256})
	cancel()
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var se *simerr.Error
	if !errors.As(err, &se) || se.Chunk < 0 {
		t.Errorf("cancellation error carries no chunk position: %v", err)
	}
	settleGoroutines(t, base)

	trace := fixedTrace(20_000)
	cfgs := cache.PaperSweep()[:4]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, ChunkRefs: 1024}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	interruptRun(t, ctx, singles(cfgs), &cancelAfter{Source: NewSliceSource(trace), after: 3, cancel: cancel},
		opts, simerr.ErrCanceled, 3)
	got, err := Run(context.Background(), cfgs, NewSliceSource(trace), opts)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	compareResults(t, "one-worker rerun", cfgs, got, want)
}

// TestPreCancelledContext returns immediately without touching the trace.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &cancelSource{after: 1 << 30, cancel: func() {}}
	_, err := Run(ctx, cache.PaperSweep()[:4], src, Options{Workers: 4, ChunkRefs: 256})
	if !simerr.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if src.chunks > 1 {
		t.Errorf("pre-cancelled sweep still read %d chunks", src.chunks)
	}
}

// TestNilContextNeverCancels pins the nil-ctx fast path: a full sweep
// with a nil context runs to completion.
func TestNilContextNeverCancels(t *testing.T) {
	trace := fixedTrace(20_000)
	cfgs := cache.PaperSweep()[:6]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	got, err := RunTrace(nilCtx, cfgs, trace, Options{Workers: 3, ChunkRefs: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged under nil ctx", cfgs[i])
		}
	}
}

// TestCanceledErrorCarriesChunk checks the structured error exposes the
// chunk position for operator diagnostics.
func TestCanceledErrorCarriesChunk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelSource{after: 3, cancel: cancel}
	_, err := Run(ctx, cache.PaperSweep()[:4], src, Options{Workers: 2, ChunkRefs: 128})
	cancel()
	var se *simerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not a *simerr.Error", err)
	}
	if se.Chunk < 0 {
		t.Errorf("cancellation error has no chunk position: %+v", se)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation error does not unwrap to context.Canceled: %v", err)
	}
}
