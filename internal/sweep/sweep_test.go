package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/simerr"
)

// fixedTrace is a deterministic mixed RAM/flash address trace.
func fixedTrace(n int) []uint32 {
	rng := rand.New(rand.NewSource(2005))
	trace := make([]uint32, n)
	for i := range trace {
		if rng.Intn(3) == 0 {
			trace[i] = 0x10000000 + uint32(rng.Intn(1<<18)) // flash-side
		} else {
			trace[i] = uint32(rng.Intn(1 << 18)) // RAM-side
		}
	}
	return trace
}

// TestRunMatchesSerialSweep is the determinism gate: for every worker
// count and chunk size, the engine's results are identical — field for
// field — to the old serial cache.Sweep loop.
func TestRunMatchesSerialSweep(t *testing.T) {
	trace := fixedTrace(120_000)
	cfgs := cache.PaperSweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineAuto, EngineDirect, EngineStack} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, chunk := range []int{0, 1, 7, 4096} {
				name := fmt.Sprintf("%s/workers=%d/chunk=%d", engine, workers, chunk)
				got, err := RunTrace(context.Background(), cfgs, trace, Options{Workers: workers, ChunkRefs: chunk, Engine: engine})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: %v diverged: got %+v want %+v", name, cfgs[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamingSourceMatchesSlice binds the streaming desktop generator to
// the materialized one: sweeping dtrace.Stream must equal sweeping the
// slice from dtrace.Generate.
func TestStreamingSourceMatchesSlice(t *testing.T) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 60_000
	want, err := RunTrace(context.Background(), cache.PaperSweep(), dtrace.Generate(cfg), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := Run(context.Background(), cache.PaperSweep(), dtrace.NewStream(cfg), Options{Workers: workers, ChunkRefs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %v diverged from materialized sweep", workers, want[i].Config)
			}
		}
	}
}

// errSource fails after delivering a few chunks.
type errSource struct{ chunks int }

func (e *errSource) NextChunk(buf []uint32) (int, error) {
	if e.chunks == 0 {
		return 0, fmt.Errorf("synthetic trace error")
	}
	e.chunks--
	for i := range buf {
		buf[i] = uint32(i)
	}
	return len(buf), nil
}

// TestSourceErrorPropagates checks a mid-stream read failure aborts the
// sweep with the source's error, for both engine paths.
func TestSourceErrorPropagates(t *testing.T) {
	cfgs := cache.PaperSweep()[:6]
	for _, workers := range []int{1, 3} {
		if _, err := Run(context.Background(), cfgs, &errSource{chunks: 3}, Options{Workers: workers, ChunkRefs: 64}); err == nil {
			t.Errorf("workers=%d: error not propagated", workers)
		}
	}
}

// TestInvalidConfigRejected checks configuration validation happens before
// any trace is consumed.
func TestInvalidConfigRejected(t *testing.T) {
	for _, bad := range []cache.Config{
		{SizeBytes: 3000, LineBytes: 16, Ways: 1},
		{SizeBytes: 64 << 10, LineBytes: 16, Ways: 256, Write: cache.WriteBack},
		{SizeBytes: 64 << 10, LineBytes: 16, Ways: 512, Policy: cache.FIFO},
	} {
		if _, err := RunTrace(context.Background(), []cache.Config{bad}, fixedTrace(10), Options{}); err == nil {
			t.Errorf("invalid config %v accepted", bad)
		}
	}
}

// TestEmptyInputs covers the degenerate shapes.
func TestEmptyInputs(t *testing.T) {
	// Empty trace: zero-access results for every config.
	res, err := RunTrace(context.Background(), cache.PaperSweep()[:4], nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Accesses != 0 || r.Misses != 0 {
			t.Errorf("%v: nonzero stats on empty trace: %+v", r.Config, r)
		}
	}
	// No configurations: empty result set, trace still drained cleanly.
	res, err = RunTrace(context.Background(), nil, fixedTrace(100), Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("no-config sweep: res=%v err=%v", res, err)
	}
	// No configurations with an erroring source: the one worker's empty
	// shard still reads the trace to the error, which surfaces.
	for _, workers := range []int{1, 4} {
		if _, err := Run(context.Background(), nil, &errSource{chunks: 2}, Options{Workers: workers, ChunkRefs: 64}); err == nil {
			t.Errorf("workers=%d: no-config sweep swallowed source error", workers)
		}
	}
	// No configurations under a cancelled context: the cancellation
	// surfaces as well.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunTrace(ctx, nil, fixedTrace(100), Options{}); !errors.Is(err, simerr.ErrCanceled) {
		t.Errorf("cancelled no-config sweep: err = %v, want ErrCanceled", err)
	}
}

// TestWorkersClampedToConfigs runs more workers than configurations.
func TestWorkersClampedToConfigs(t *testing.T) {
	trace := fixedTrace(5000)
	cfgs := cache.PaperSweep()[:3]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTrace(context.Background(), cfgs, trace, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged with clamped workers", cfgs[i])
		}
	}
}

// eofSource delivers a fixed trace in short chunks and signals the end
// with io.EOF — either alongside the final refs (finalWithRefs) or as a
// bare (0, io.EOF) after the last full chunk. Both shapes are legal under
// the Source contract and must sweep identically to (n, nil)+(0, nil).
type eofSource struct {
	trace         []uint32
	chunk         int
	finalWithRefs bool
	pos           int
}

func (e *eofSource) NextChunk(buf []uint32) (int, error) {
	if e.pos >= len(e.trace) {
		return 0, io.EOF
	}
	n := e.chunk
	if n > len(buf) {
		n = len(buf)
	}
	if rest := len(e.trace) - e.pos; n >= rest {
		n = rest
		copy(buf, e.trace[e.pos:e.pos+n])
		e.pos += n
		if e.finalWithRefs {
			return n, io.EOF
		}
		return n, nil
	}
	copy(buf, e.trace[e.pos:e.pos+n])
	e.pos += n
	return n, nil
}

// TestSourceEOFContract sweeps every legal end-of-trace shape — io.EOF
// with the final refs, bare (0, io.EOF), a short final chunk ending in
// (0, nil), and zero-length traces under each convention — and demands
// results identical to the materialized sweep.
func TestSourceEOFContract(t *testing.T) {
	trace := fixedTrace(10_007) // prime length: the final chunk is short
	cfgs := cache.PaperSweep()[:8]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineDirect, EngineStack} {
		for _, workers := range []int{1, 4} {
			for _, finalWithRefs := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/eofWithRefs=%v", engine, workers, finalWithRefs)
				src := &eofSource{trace: trace, chunk: 100, finalWithRefs: finalWithRefs}
				got, err := Run(context.Background(), cfgs, src, Options{Workers: workers, ChunkRefs: 256, Engine: engine})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: %v diverged: got %+v want %+v", name, cfgs[i], got[i], want[i])
					}
				}
				// Zero-length trace under the same convention.
				empty := &eofSource{finalWithRefs: finalWithRefs, chunk: 100}
				res, err := Run(context.Background(), cfgs, empty, Options{Workers: workers, Engine: engine})
				if err != nil {
					t.Fatalf("%s empty: %v", name, err)
				}
				for _, r := range res {
					if r.Accesses != 0 || r.Misses != 0 {
						t.Errorf("%s: nonzero stats on empty trace: %+v", name, r)
					}
				}
			}
		}
	}
}

// TestEngineString pins the flag spellings the cachesweep command parses.
func TestEngineString(t *testing.T) {
	for eng, want := range map[Engine]string{
		EngineAuto:   "auto",
		EngineDirect: "direct",
		EngineStack:  "stack",
		Engine(99):   "engine(99)",
	} {
		if got := eng.String(); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(eng), got, want)
		}
	}
}

// TestSliceSourceChunking walks a SliceSource with an odd buffer size.
func TestSliceSourceChunking(t *testing.T) {
	trace := fixedTrace(1003)
	src := NewSliceSource(trace)
	var got []uint32
	buf := make([]uint32, 97)
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
	if len(got) != len(trace) {
		t.Fatalf("streamed %d refs, want %d", len(got), len(trace))
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("ref %d diverged", i)
		}
	}
}

// TestKindedSliceSourceCoverage pins how a kinded slice source treats its
// kind array: an address-only sweep reads the whole trace whatever the
// kinds hold (nil kinds once made such a sweep see zero references), and
// a kinded sweep whose kinds run out before the trace fails with
// ErrCorruptTrace instead of silently sweeping a prefix. Both the
// streaming path and OPT's materializing path are covered.
func TestKindedSliceSourceCoverage(t *testing.T) {
	trace, kinds := kindedFixedTrace(10_000)
	for _, tc := range []struct {
		name    string
		kinds   []uint8
		write   cache.WritePolicy
		wantErr bool
	}{
		{"nil kinds, address-only", nil, cache.WriteIgnore, false},
		{"short kinds, address-only", kinds[:100], cache.WriteIgnore, false},
		{"full kinds, write-back", kinds, cache.WriteBack, false},
		{"nil kinds, write-back", nil, cache.WriteBack, true},
		{"short kinds, write-back", kinds[:9_000], cache.WriteBack, true},
	} {
		for _, pol := range []cache.Policy{cache.LRU, cache.OPT} {
			cfgs := []cache.Config{{SizeBytes: 4096, LineBytes: 16, Ways: 2, Policy: pol, Write: tc.write}}
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/workers=%d", tc.name, pol, workers)
				res, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, tc.kinds),
					Options{Workers: workers, ChunkRefs: 1024})
				if tc.wantErr {
					if !errors.Is(err, simerr.ErrCorruptTrace) {
						t.Errorf("%s: err = %v, want ErrCorruptTrace", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res[0].Accesses != uint64(len(trace)) {
					t.Errorf("%s: swept %d references, want %d", name, res[0].Accesses, len(trace))
				}
			}
		}
	}
}
