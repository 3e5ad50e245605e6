package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"palmsim/internal/alloctest"
	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/dtrace"
	"palmsim/internal/simerr"
)

// mixedPolicySweep is a configuration set exercising every replacement
// policy, so checkpointing round-trips LRU order state, FIFO queues and
// the Random policy's PRNG state.
func mixedPolicySweep() []cache.Config {
	cfgs := cache.PaperSweep()[:8]
	for _, pol := range []cache.Policy{cache.FIFO, cache.Random} {
		cfgs = append(cfgs,
			cache.Config{SizeBytes: 4096, LineBytes: 16, Ways: 2, Policy: pol},
			cache.Config{SizeBytes: 8192, LineBytes: 32, Ways: 4, Policy: pol},
		)
	}
	return cfgs
}

// interruptRun sweeps trace with checkpointing on and cancels after
// `after` chunks, leaving a sidecar behind. It fails the test unless the
// run ended in cancellation.
func interruptRun(t *testing.T, path string, cfgs []cache.Config, trace []uint32, after, workers, chunkRefs int, eng Engine) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &countingSource{inner: NewSliceSource(trace), after: after, cancel: cancel}
	_, err := Run(ctx, cfgs, src, Options{
		Workers: workers, ChunkRefs: chunkRefs, Engine: eng,
		CheckpointPath: path, CheckpointEveryChunks: 4,
	})
	if !simerr.IsCanceled(err) {
		t.Fatalf("interrupted run: err = %v, want cancellation", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no sidecar after cancellation: %v", err)
	}
}

// countingSource wraps a Source and fires cancel after `after` chunks.
type countingSource struct {
	inner  Source
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *countingSource) NextChunk(buf []uint32) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	return s.inner.NextChunk(buf)
}

// TestCheckpointResumeBitIdentical is the golden gate: interrupt a
// checkpointed sweep partway, resume it from the sidecar on a fresh
// source, and demand results identical — field for field — to an
// uninterrupted run. Covers both engines, serial and parallel, and all
// three replacement policies (the Random policy makes this a PRNG-state
// round-trip test too).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineDirect, EngineStack} {
		for _, workers := range []int{1, 4} {
			for _, after := range []int{2, 7, 23} {
				path := filepath.Join(t.TempDir(), "sweep.ckpt")
				interruptRun(t, path, cfgs, trace, after, workers, 1024, eng)

				// Resume on a fresh source — different worker count than
				// the writer, which the format explicitly permits.
				got, err := Run(context.Background(), cfgs, NewSliceSource(trace), Options{
					Workers: 5 - workers, ChunkRefs: 1024, Engine: eng,
					CheckpointPath: path, CheckpointEveryChunks: 4, Resume: true,
				})
				if err != nil {
					t.Fatalf("%s workers=%d after=%d: resume: %v", eng, workers, after, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s workers=%d after=%d: %v diverged after resume: got %+v want %+v",
							eng, workers, after, cfgs[i], got[i], want[i])
					}
				}
				// A completed sweep removes its sidecar.
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("%s workers=%d after=%d: sidecar survived a completed sweep", eng, workers, after)
				}
			}
		}
	}
}

// TestResumeWithoutSidecarStartsFresh pins that Resume with no sidecar
// on disk is a clean cold start, not an error.
func TestResumeWithoutSidecarStartsFresh(t *testing.T) {
	trace := fixedTrace(10_000)
	cfgs := cache.PaperSweep()[:4]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "missing.ckpt")
	got, err := RunTrace(context.Background(), cfgs, trace, Options{
		Workers: 2, ChunkRefs: 512, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged on fresh start with Resume set", cfgs[i])
		}
	}
}

// TestResumeRejectsForeignSidecar: a sidecar written by a different
// configuration set (or engine) must fail with ErrBadCheckpoint, never
// silently produce numbers.
func TestResumeRejectsForeignSidecar(t *testing.T) {
	trace := fixedTrace(20_000)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, cache.PaperSweep()[:6], trace, 3, 2, 512, EngineStack)

	// Different configuration set.
	_, err := RunTrace(context.Background(), cache.PaperSweep()[:8], trace, Options{
		Workers: 2, ChunkRefs: 512, Engine: EngineStack,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign config set: err = %v, want ErrBadCheckpoint", err)
	}
	// Different engine.
	_, err = RunTrace(context.Background(), cache.PaperSweep()[:6], trace, Options{
		Workers: 2, ChunkRefs: 512, Engine: EngineDirect,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign engine: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeRejectsCorruptSidecar flips bytes in a valid sidecar and
// checks the checksum gate catches it; same for a truncated file and a
// bad magic.
func TestResumeRejectsCorruptSidecar(t *testing.T) {
	trace := fixedTrace(20_000)
	cfgs := cache.PaperSweep()[:6]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, cfgs, trace, 3, 2, 512, EngineStack)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resume := func() error {
		_, err := RunTrace(context.Background(), cfgs, trace, Options{
			Workers: 2, ChunkRefs: 512, Engine: EngineStack,
			CheckpointPath: path, Resume: true,
		})
		return err
	}

	// Flipped byte in the body: checksum mismatch.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("corrupt body: err = %v, want ErrBadCheckpoint", err)
	}

	// Truncated file.
	if err := os.WriteFile(path, good[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("truncated: err = %v, want ErrBadCheckpoint", err)
	}

	// Wrong magic, including the previous format's: a PALMCKP1 sidecar
	// carries a fingerprint this sweep no longer computes, so it must be
	// refused even with a checksum that matches its body.
	for _, magic := range []string{"NOTACKPT", "PALMCKP1"} {
		bad = append([]byte(nil), good[:len(good)-8]...)
		copy(bad, magic)
		sum := fnv.New64a()
		sum.Write(bad)
		bad = binary.LittleEndian.AppendUint64(bad, sum.Sum64())
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
			t.Errorf("magic %q: err = %v, want ErrBadCheckpoint", magic, err)
		}
	}
}

// TestResumeRejectsShortTrace: resuming against a trace shorter than the
// checkpoint's consumed prefix is an ErrBadCheckpoint (the sidecar
// belongs to a different, longer trace).
func TestResumeRejectsShortTrace(t *testing.T) {
	trace := fixedTrace(30_000)
	cfgs := cache.PaperSweep()[:6]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	// Interrupt late enough that >5000 refs were consumed (after chunk 20
	// at 1024 refs/chunk the producer has consumed ~20k refs).
	interruptRun(t, path, cfgs, trace, 20, 1, 1024, EngineStack)

	_, err := RunTrace(context.Background(), cfgs, trace[:5_000], Options{
		Workers: 1, ChunkRefs: 1024, Engine: EngineStack,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("short trace: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestPeriodicCheckpointSurvivesCrash simulates a crash between periodic
// saves: the source errors out (no cancellation, so no final save), and
// the sweep resumes from the last periodic sidecar bit-identically.
func TestPeriodicCheckpointSurvivesCrash(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// "Crash": the source fails hard partway through. Periodic saves at
	// every 4 chunks have left a sidecar; the error path does not write a
	// final one.
	src := &crashSource{inner: NewSliceSource(trace), after: 11}
	_, err = Run(context.Background(), cfgs, src, Options{
		Workers: 3, ChunkRefs: 1024, CheckpointPath: path, CheckpointEveryChunks: 4,
	})
	if err == nil || simerr.IsCanceled(err) {
		t.Fatalf("crash run: err = %v, want a hard source error", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no periodic sidecar after crash: %v", err)
	}

	got, err := Run(context.Background(), cfgs, NewSliceSource(trace), Options{
		Workers: 2, ChunkRefs: 1024, CheckpointPath: path, CheckpointEveryChunks: 4, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged after crash-resume: got %+v want %+v", cfgs[i], got[i], want[i])
		}
	}
}

// TestCheckpointSaveFaults puts a directory where a checkpoint save must
// write its temp file, then where it must rename it to. The write fault
// fails the sweep with the *fs.PathError and leaves the last good
// sidecar untouched, so the sweep resumes from it once the fault clears;
// the rename fault fails with the *os.LinkError and leaves no temp file.
func TestCheckpointSaveFaults(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	block := func(path string) { // a non-empty directory: no write or rename can replace it
		if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, ChunkRefs: 1024, Engine: EngineStack, CheckpointEveryChunks: 1}

		path := filepath.Join(t.TempDir(), "S")
		interruptRun(t, path, cfgs, trace, 3, workers, 1024, EngineStack)
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		block(path + ".tmp")
		opts.CheckpointPath, opts.Resume = path, true
		_, err = Run(context.Background(), cfgs, NewSliceSource(trace), opts)
		if !errors.As(err, new(*fs.PathError)) {
			t.Fatalf("workers=%d: write fault: err = %v, want an *fs.PathError", workers, err)
		}
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, saved) {
			t.Fatalf("workers=%d: write fault changed the sidecar (err %v)", workers, err)
		}
		if err := os.RemoveAll(path + ".tmp"); err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), cfgs, NewSliceSource(trace), opts)
		if err != nil {
			t.Fatalf("workers=%d: resume after the write fault: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %v diverged after the write fault: got %+v want %+v", workers, cfgs[i], got[i], want[i])
			}
		}

		path = filepath.Join(t.TempDir(), "S")
		block(path)
		opts.CheckpointPath, opts.Resume = path, false
		_, err = Run(context.Background(), cfgs, NewSliceSource(trace), opts)
		if !errors.As(err, new(*os.LinkError)) {
			t.Fatalf("workers=%d: rename fault: err = %v, want an *os.LinkError", workers, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("workers=%d: rename fault left %s.tmp behind (stat err %v)", workers, path, err)
		}
	}
}

// crashSource fails hard after delivering a set number of chunks.
type crashSource struct {
	inner  Source
	after  int
	chunks int
}

func (s *crashSource) NextChunk(buf []uint32) (int, error) {
	if s.chunks >= s.after {
		return 0, errors.New("synthetic I/O failure")
	}
	s.chunks++
	return s.inner.NextChunk(buf)
}

// kindedCountingSource wraps a KindedSliceSource and fires cancel after
// `after` kinded chunks — the kinded-mode counterpart of countingSource.
type kindedCountingSource struct {
	inner  *KindedSliceSource
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *kindedCountingSource) NextChunk(buf []uint32) (int, error) {
	return s.inner.NextChunk(buf)
}

func (s *kindedCountingSource) NextChunkKinded(buf []uint32, kinds []uint8) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	return s.inner.NextChunkKinded(buf, kinds)
}

// kindedCheckpointSweep exercises the PR 9 state: PLRU trees, FIFO
// round-robin pointers, and write-back dirty/wmax tracking all have to
// survive the sidecar round trip.
func kindedCheckpointSweep() []cache.Config {
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		for _, wp := range []cache.WritePolicy{cache.WriteThrough, cache.WriteBack} {
			cfgs = append(cfgs,
				cache.Config{SizeBytes: 2048, LineBytes: 16, Ways: 2, Policy: pol, Write: wp},
				cache.Config{SizeBytes: 8192, LineBytes: 32, Ways: 4, Policy: pol, Write: wp},
			)
		}
	}
	return cfgs
}

// TestCheckpointResumeKindedWritePolicies: interrupt a kinded write-policy
// sweep mid-trace, resume from the sidecar, and demand results identical
// to the direct per-configuration oracle — including the write and
// writeback counters, which live in the checkpointed unit state.
func TestCheckpointResumeKindedWritePolicies(t *testing.T) {
	trace, kinds := kindedFixedTrace(40_000)
	cfgs := kindedCheckpointSweep()
	want := directKindedOracle(t, cfgs, trace, kinds)
	for _, eng := range []Engine{EngineStack, EngineDirect} {
		for _, after := range []int{3, 9} {
			name := fmt.Sprintf("%s/after=%d", eng, after)
			path := filepath.Join(t.TempDir(), "kinded.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			src := &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: after, cancel: cancel}
			_, err := Run(ctx, cfgs, src, Options{
				Workers: 3, ChunkRefs: 1024, Engine: eng,
				CheckpointPath: path, CheckpointEveryChunks: 2,
			})
			cancel()
			if !simerr.IsCanceled(err) {
				t.Fatalf("%s: interrupted run: err = %v, want cancellation", name, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s: no sidecar after cancellation: %v", name, err)
			}

			got, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds), Options{
				Workers: 2, ChunkRefs: 1024, Engine: eng,
				CheckpointPath: path, CheckpointEveryChunks: 2, Resume: true,
			})
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: %v diverged after resume: got %+v want %+v",
						name, cfgs[i], got[i], want[i])
				}
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s: sidecar survived a completed sweep", name)
			}
		}
	}
}

// TestCheckpointResumeOptSweep: an OPT sweep materializes its source
// before the checkpointer exists, so a cancelling source cannot
// interrupt it mid-run. Instead, build the production plan directly,
// feed it a prefix, write a sidecar through the production checkpointer,
// and let Run resume from it — the resumed sweep must match an
// uninterrupted one in every counter.
func TestCheckpointResumeOptSweep(t *testing.T) {
	trace := fixedTrace(30_000)
	cfgs := []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU},
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.PLRU},
	}
	want := directKindedOracle(t, cfgs, trace, nil)

	hs := singles(cfgs)
	for _, eng := range []Engine{EngineStack, EngineDirect} {
		anns, err := opt.AnnotateAll(trace, hierOptLineSizes(hs))
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildHierarchies(hs, eng, anns)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = 13_312 // 13 chunks of 1024
		for lo := 0; lo < prefix; lo += 1024 {
			for _, u := range p.units {
				u.AccessAllKinded(trace[lo:lo+1024], nil)
			}
		}
		path := filepath.Join(t.TempDir(), "opt.ckpt")
		ck, err := newCheckpointer(path, 1, p.units, hierarchyHash(hs, eng))
		if err != nil {
			t.Fatal(err)
		}
		ck.consumed(prefix)
		if err := ck.save(); err != nil {
			t.Fatal(err)
		}

		got, err := RunTrace(context.Background(), cfgs, trace, Options{
			Workers: 2, ChunkRefs: 1024, Engine: eng,
			CheckpointPath: path, Resume: true,
		})
		if err != nil {
			t.Fatalf("%s: resume: %v", eng, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %v diverged after OPT resume: got %+v want %+v",
					eng, cfgs[i], got[i], want[i])
			}
		}
	}
}

// TestResumeRejectsForeignPolicySidecar: a sidecar is fingerprinted by
// replacement policy AND write policy — resuming the same geometries
// under a different policy of either kind must fail with
// ErrBadCheckpoint, never blend the two runs' numbers.
func TestResumeRejectsForeignPolicySidecar(t *testing.T) {
	trace, kinds := kindedFixedTrace(20_000)
	geoms := []cache.Config{
		{SizeBytes: 2048, LineBytes: 16, Ways: 2},
		{SizeBytes: 8192, LineBytes: 32, Ways: 4},
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, geoms, trace, 3, 2, 512, EngineStack)

	resume := func(cfgs []cache.Config) error {
		_, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds), Options{
			Workers: 2, ChunkRefs: 512, Engine: EngineStack,
			CheckpointPath: path, Resume: true,
		})
		return err
	}

	// Same geometries, different replacement policy.
	foreign := make([]cache.Config, len(geoms))
	copy(foreign, geoms)
	for i := range foreign {
		foreign[i].Policy = cache.PLRU
	}
	if err := resume(foreign); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign replacement policy: err = %v, want ErrBadCheckpoint", err)
	}

	// Same geometries and replacement policy, different write policy.
	copy(foreign, geoms)
	for i := range foreign {
		foreign[i].Write = cache.WriteBack
	}
	if err := resume(foreign); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign write policy: err = %v, want ErrBadCheckpoint", err)
	}

	// The original configuration set still resumes cleanly.
	if err := resume(geoms); err != nil {
		t.Errorf("original config set failed to resume: %v", err)
	}
}

// everyUnitKind returns the units of a stack-engine and a direct-engine
// plan that between them hold each checkpointable unit kind once:
// hier.Sim (an inclusive L1→L2), stack.Refinement (LRU), stack.Family
// (FIFO), cache.Cache (Random, the stack engine's fallback), opt.Family,
// sharedL1Unit (a non-inclusive PLRU L1→L2) and opt.DirectCache. Every
// level is small and write-back, so FIFO pointers, PLRU bits, dirty
// bits, wmax and writeback histograms are all part of the state. anns
// may be nil when no reference is fed.
func everyUnitKind(t testing.TB, anns map[int]*opt.Annotation) []unit {
	t.Helper()
	wb := func(size, ways int, pol cache.Policy) cache.Config {
		return cache.Config{SizeBytes: size, LineBytes: 16, Ways: ways, Policy: pol, Write: cache.WriteBack}
	}
	var units []unit
	for _, p := range []struct {
		eng Engine
		hs  []cache.Hierarchy
	}{
		{EngineStack, []cache.Hierarchy{
			{Levels: []cache.Config{wb(32, 2, cache.LRU), wb(64, 2, cache.LRU)}, Content: cache.Inclusive},
			{Levels: []cache.Config{wb(32, 2, cache.LRU)}},
			{Levels: []cache.Config{wb(32, 2, cache.FIFO)}},
			{Levels: []cache.Config{wb(32, 2, cache.Random)}},
			{Levels: []cache.Config{wb(32, 2, cache.OPT)}},
			{Levels: []cache.Config{wb(32, 2, cache.PLRU), wb(64, 2, cache.LRU)}},
		}},
		{EngineDirect, singles([]cache.Config{wb(32, 2, cache.OPT)})},
	} {
		plan, err := buildHierarchies(p.hs, p.eng, anns)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, plan.units...)
	}
	kinds := map[string]bool{}
	for _, u := range units {
		kinds[fmt.Sprintf("%T", u)] = true
	}
	if len(units) != 7 || len(kinds) != 7 {
		t.Fatalf("plan has %d units of %d kinds, want 7 of 7: %v", len(units), len(kinds), kinds)
	}
	return units
}

// everyUnitKindHash stands in for the configuration fingerprint of
// everyUnitKind's two plans, which no single sweep would produce.
const everyUnitKindHash = 0x15

// partialSidecar feeds the first half of a fixed dtrace.Generate trace,
// with kinds cycling fetch/read/write, through everyUnitKind's units and
// returns the sidecar the checkpointer saves for them.
func partialSidecar(t testing.TB) []byte {
	t.Helper()
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 4096
	trace := dtrace.Generate(cfg)
	kinds := make([]uint8, len(trace))
	for i := range kinds {
		kinds[i] = uint8(i % 3)
	}
	anns, err := opt.AnnotateAll(trace, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	units := everyUnitKind(t, anns)
	half := len(trace) / 2
	for _, u := range units {
		u.AccessAllKinded(trace[:half], kinds[:half])
	}
	path := filepath.Join(t.TempDir(), "partial.ckpt")
	ck, err := newCheckpointer(path, 1, units, everyUnitKindHash)
	if err != nil {
		t.Fatal(err)
	}
	ck.consumed(half)
	if err := ck.save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// pinnedSidecarSHA256 is the SHA-256 of partialSidecar's bytes. A change
// to it changes the PALMCKP2 format, which needs a new magic so sidecars
// already on disk are refused rather than misread.
const pinnedSidecarSHA256 = "4bda15114461011be1d1a5e2dd19854608291b79f1720b71fb7477a96776265a"

// TestSidecarFormatPinned holds the PALMCKP2 encoding of every unit kind
// to its committed bytes.
func TestSidecarFormatPinned(t *testing.T) {
	sum := sha256.Sum256(partialSidecar(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedSidecarSHA256 {
		t.Errorf("sidecar SHA-256 = %s, want %s", got, pinnedSidecarSHA256)
	}
}

// load may allocate at most loadAllocPerByte·len(sidecar) +
// loadAllocFixed bytes: the sidecar is read whole, and the units it
// restores are allocated by the plan, not by load. A valid 926-byte
// sidecar of every unit kind costs 2,552 bytes, and an 8-byte file about
// 1,000 (the read buffer's 512-byte floor and the error).
const (
	loadAllocPerByte = 2
	loadAllocFixed   = 4 << 10
)

// loadAllocs runs ck.load (twice, through alloctest.Allocated) and fails
// t when it allocated more than the bound for a sidecar of n bytes.
func loadAllocs(t *testing.T, what string, ck *checkpointer, n int) error {
	t.Helper()
	var err error
	alloc := alloctest.Allocated(func() { _, _, err = ck.load() })
	alloctest.CheckAllocs(t, what+": load", n, alloc, loadAllocPerByte, loadAllocFixed)
	return err
}

// sealSidecar appends the FNV-1a checksum that load verifies first, so a
// patched body reaches the header and unit decoders.
func sealSidecar(body []byte) []byte {
	sum := fnv.New64a()
	sum.Write(body)
	return binary.LittleEndian.AppendUint64(body, sum.Sum64())
}

// TestCheckpointHostileHeaders: load rejects each hostile PALMCKP2 header
// as a bad checkpoint, allocating in proportion to the sidecar, never to
// what the header declares.
func TestCheckpointHostileHeaders(t *testing.T) {
	base := partialSidecar(t)
	body := base[:len(base)-8]
	patched := func(off int) []byte {
		b := bytes.Clone(body)
		binary.LittleEndian.PutUint32(b[off:], math.MaxUint32)
		return sealSidecar(b)
	}
	units := len(checkpointMagic) + 8 + 8 // after the hash and the reference count
	path := filepath.Join(t.TempDir(), "hostile.ckpt")
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^32-1 units", patched(units)},
		{"unit blob length of 2^32-1", patched(units + 4)},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := newCheckpointer(path, 1, everyUnitKind(t, nil), everyUnitKindHash)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadAllocs(t, tc.name, ck, len(tc.data)); !errors.Is(err, simerr.ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
}

// FuzzCheckpointLoad hands sidecar bodies, each sealed with a fresh
// checksum so it gets past the checksum to the unit decoders, to the
// checkpointer of a plan holding every unit kind. A body is a real
// partial sweep's sidecar with cut bytes at offset at replaced by patch:
// small inputs then reach every field, keeping minimization cheap, and
// a large cut makes patch the whole body. load must accept or fail with
// ErrBadCheckpoint, never panic or exceed the allocation bound; an
// accepted sidecar must save, load again and save the same bytes.
func FuzzCheckpointLoad(f *testing.F) {
	seed := partialSidecar(f)
	base := seed[:len(seed)-8]
	f.Add(uint16(0), uint16(0), []byte(nil))
	f.Add(uint16(0), uint16(len(base)), []byte(checkpointMagic))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, at, cut uint16, patch []byte) {
		lo := min(int(at), len(base))
		hi := min(lo+int(cut), len(base))
		body := append(append(append([]byte(nil), base[:lo]...), patch...), base[hi:]...)
		sealed := sealSidecar(body)
		if err := os.WriteFile(path, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		loadSave := func() ([]byte, error) {
			ck, err := newCheckpointer(path, 1, everyUnitKind(t, nil), everyUnitKindHash)
			if err != nil {
				t.Fatal(err)
			}
			if err := loadAllocs(t, "fuzzed sidecar", ck, len(sealed)); err != nil {
				return nil, err
			}
			if err := ck.save(); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return saved, nil
		}
		first, err := loadSave()
		if err != nil {
			if !errors.Is(err, simerr.ErrBadCheckpoint) {
				t.Fatalf("load: err = %v, want ErrBadCheckpoint", err)
			}
			return
		}
		second, err := loadSave()
		if err != nil {
			t.Fatalf("reloading a saved sidecar: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("second save differs from the first (%d vs %d bytes)", len(second), len(first))
		}
	})
}
