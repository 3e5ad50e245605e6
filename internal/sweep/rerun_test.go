// Interrupted and rejected sweeps. A sweep stopped part way, canceled
// through its context or failed by its source, returns a typed error
// naming the chunk it stopped at and leaves no goroutine behind; running
// it again over a fresh source gives results bit-identical to an
// uninterrupted run, for every engine, worker count and unit kind. Every
// input from outside the sweep (a truncated or hostile packed trace, a
// short kind array, a failing source) ends it with a typed error, at a
// cost bounded by the input's length. The Checkpoint, Resume and Sidecar
// test names date from the checkpoint sidecar these tests once covered;
// it is gone, an interrupted sweep is simply run again, and the names
// stay.
package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"palmsim/internal/alloctest"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/simerr"
)

// mixedPolicySweep is a configuration set exercising LRU, FIFO and the
// Random policy's private PRNG.
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

// kindedRerunSweep crosses LRU, FIFO and PLRU with write-through and
// write-back, so PLRU trees, FIFO pointers and dirty/wmax tracking all
// shape the results.
func kindedRerunSweep() []cache.Config {
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

// kindedCountingSource is cancelAfter's kinded counterpart: it fires
// cancel during its after-th kinded read, so the producer's next poll
// stops the sweep at chunk after.
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

// errSynthetic is failSource's underlying I/O failure.
var errSynthetic = errors.New("synthetic I/O failure")

// failSource serves inner until its after-th read, and fails that read
// and every later one with a typed error naming the chunk the producer
// was reading (after-1, counting from zero).
type failSource struct {
	inner  *KindedSliceSource
	after  int
	chunks int
}

func (s *failSource) fail() error {
	if s.chunks++; s.chunks < s.after {
		return nil
	}
	e := simerr.New(simerr.ErrCorruptTrace, "failing source", errSynthetic)
	e.Chunk = int64(s.after - 1)
	return e
}

func (s *failSource) NextChunk(buf []uint32) (int, error) {
	if err := s.fail(); err != nil {
		return 0, err
	}
	return s.inner.NextChunk(buf)
}

func (s *failSource) NextChunkKinded(buf []uint32, kinds []uint8) (int, error) {
	if err := s.fail(); err != nil {
		return 0, err
	}
	return s.inner.NextChunkKinded(buf, kinds)
}

// reads is how many reads a slice source of n references takes to end
// at chunkRefs per chunk: the full chunks, a partial one if any, and the
// empty read that ends the trace.
func reads(n, chunkRefs int) int { return n/chunkRefs + 1 + min(n%chunkRefs, 1) }

// interruptRun sweeps hs over src, which must stop the sweep: it
// requires the typed error kind naming chunk, and that every goroutine
// the sweep started is gone.
func interruptRun(t *testing.T, ctx context.Context, hs []cache.Hierarchy, src Source, opts Options, kind error, chunk int64) {
	t.Helper()
	base := runtime.NumGoroutine()
	_, err := RunHierarchies(ctx, hs, src, opts)
	var se *simerr.Error
	if !errors.Is(err, kind) || !errors.As(err, &se) || se.Chunk != chunk {
		t.Fatalf("interrupted sweep: err = %v, want %v at chunk %d", err, kind, chunk)
	}
	settleGoroutines(t, base)
}

// TestCheckpointResumeBitIdentical is the rerun gate: cancel a sweep
// after 2, 7 or 23 chunks, then run it again on a fresh source at the
// other worker count, and demand results identical, field for field, to
// the serial cache.Sweep loop. Covers both engines, serial and parallel,
// and LRU, FIFO and Random (whose PRNG restarts with the rerun).
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
				opts := Options{Workers: workers, ChunkRefs: 1024, Engine: eng}
				ctx, cancel := context.WithCancel(context.Background())
				src := &cancelAfter{Source: NewSliceSource(trace), after: after, cancel: cancel}
				interruptRun(t, ctx, singles(cfgs), src, opts, simerr.ErrCanceled, int64(after))
				cancel()

				opts.Workers = 5 - workers
				got, err := Run(context.Background(), cfgs, NewSliceSource(trace), opts)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, fmt.Sprintf("%s workers=%d after=%d", eng, workers, after), cfgs, got, want)
			}
		}
	}
}

// TestPeriodicCheckpointSurvivesCrash: a source that fails hard after 11
// chunks ends the sweep with its own typed error, unchanged and naming
// chunk 11, and no worker outlives it; the rerun over a fresh source
// matches the serial loop.
func TestPeriodicCheckpointSurvivesCrash(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	src := &failSource{inner: NewKindedSliceSource(trace, nil), after: 12}
	interruptRun(t, context.Background(), singles(cfgs), src, Options{Workers: 3, ChunkRefs: 1024},
		simerr.ErrCorruptTrace, 11)
	got, err := Run(context.Background(), cfgs, NewSliceSource(trace), Options{Workers: 2, ChunkRefs: 1024})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "rerun after the crash", cfgs, got, want)
}

// TestCheckpointResumeKindedWritePolicies: cancel a kinded write-policy
// sweep mid-trace, rerun it, and demand results identical to the direct
// per-configuration oracle, write and writeback counters included.
func TestCheckpointResumeKindedWritePolicies(t *testing.T) {
	trace, kinds := kindedFixedTrace(40_000)
	cfgs := kindedRerunSweep()
	want := directKindedOracle(t, cfgs, trace, kinds)
	for _, eng := range []Engine{EngineStack, EngineDirect} {
		for _, after := range []int{3, 9} {
			ctx, cancel := context.WithCancel(context.Background())
			src := &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: after, cancel: cancel}
			interruptRun(t, ctx, singles(cfgs), src, Options{Workers: 3, ChunkRefs: 1024, Engine: eng},
				simerr.ErrCanceled, int64(after))
			cancel()

			got, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds),
				Options{Workers: 2, ChunkRefs: 1024, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fmt.Sprintf("%s after=%d", eng, after), cfgs, got, want)
		}
	}
}

// TestCheckpointResumeOptSweep: an OPT sweep reads the trace twice, once
// to materialize it and once to stream the buffered copy. A cancel at
// chunk 13 stops materialize there; one during materialize's last read
// lets it finish, and the fan-out's first poll stops the sweep at chunk
// 0. Either way the rerun matches the direct oracle in every counter.
func TestCheckpointResumeOptSweep(t *testing.T) {
	trace := fixedTrace(30_000)
	cfgs := []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU},
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.PLRU},
	}
	want := directKindedOracle(t, cfgs, trace, nil)
	for _, eng := range []Engine{EngineStack, EngineDirect} {
		opts := Options{Workers: 2, ChunkRefs: 1024, Engine: eng}
		for _, at := range []struct {
			after int
			chunk int64
		}{{13, 13}, {reads(len(trace), 1024), 0}} {
			ctx, cancel := context.WithCancel(context.Background())
			src := &cancelAfter{Source: NewSliceSource(trace), after: at.after, cancel: cancel}
			interruptRun(t, ctx, singles(cfgs), src, opts, simerr.ErrCanceled, at.chunk)
			cancel()
		}
		got, err := RunTrace(context.Background(), cfgs, trace, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, eng.String(), cfgs, got, want)
	}
}

// Bounds on what a rejected sweep may allocate: the plan's units, the
// chunk buffers and the decoder's reader are a fixed cost, and a packed
// trace may cost up to rejectAllocPerByte for each of its bytes, since an
// OPT sweep materializes what it decodes. The streamed plan costs at most
// about 220 KB however long its input; the OPT plan 71 KB plus about 6
// bytes per byte of a truncated 72 KB trace.
const (
	rejectAllocPerByte = 8
	rejectAllocFixed   = 256 << 10
)

// rejectPlans are the two read paths a source meets: a streamed
// write-back grid of LRU refinements, FIFO and PLRU families and Random
// caches, and an OPT grid that materializes the trace first.
func rejectPlans() []struct {
	name string
	hs   []cache.Hierarchy
} {
	var stream []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU, cache.Random} {
		for _, g := range diffGeometries() {
			g.Policy, g.Write = pol, cache.WriteBack
			stream = append(stream, g)
		}
	}
	return []struct {
		name string
		hs   []cache.Hierarchy
	}{{"streamed", singles(stream)}, {"OPT", singles(optGrid(cache.WriteBack))}}
}

// requireRejected sweeps each rejectPlans plan, at 1 and 4 workers, over
// the source open returns. It requires the typed error kind, naming
// chunk (-1 for none), an allocation within alloctest's bound for an
// input of n bytes, and no goroutine left behind.
func requireRejected(t *testing.T, name string, n int, kind error, chunk int64, open func() Source) {
	t.Helper()
	base := runtime.NumGoroutine()
	for _, p := range rejectPlans() {
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("%s/%s/workers=%d", name, p.name, workers)
			var err error
			alloc := alloctest.Allocated(func() {
				_, err = RunHierarchies(context.Background(), p.hs, open(), Options{Workers: workers, ChunkRefs: 1000})
			})
			var se *simerr.Error
			if !errors.Is(err, kind) || !errors.As(err, &se) || se.Chunk != chunk {
				t.Errorf("%s: err = %v, want %v at chunk %d", what, err, kind, chunk)
			}
			alloctest.CheckAllocs(t, what, n, alloc, rejectAllocPerByte, rejectAllocFixed)
		}
	}
	settleGoroutines(t, base)
}

// packedOpener returns an opener of fresh decoders over data.
func packedOpener(t *testing.T, data []byte) func() Source {
	return func() Source { return packedSource(t, data) }
}

// craftPacked frames records into a packed trace: the magic, then each
// block as its uvarint reference count and its record bytes.
func craftPacked(blocks ...[]byte) []byte {
	return bytes.Join(append([][]byte{[]byte(dtrace.PackedMagic)}, blocks...), nil)
}

// uvarint is v's uvarint encoding.
func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// TestResumeWithoutSidecarStartsFresh: a source that fails its very
// first read ends the sweep before any chunk is published, with the
// source's own typed error.
func TestResumeWithoutSidecarStartsFresh(t *testing.T) {
	trace, kinds := kindedFixedTrace(10_000)
	requireRejected(t, "first read fails", 0, simerr.ErrCorruptTrace, 0, func() Source {
		return &failSource{inner: NewKindedSliceSource(trace, kinds), after: 1}
	})
}

// TestCheckpointSaveFaults: a source that fails its fourth read, after
// three chunks were published (or buffered for OPT), ends the sweep with
// that typed error, unchanged and naming chunk 3.
func TestCheckpointSaveFaults(t *testing.T) {
	trace, kinds := kindedFixedTrace(10_000)
	requireRejected(t, "fourth read fails", 0, simerr.ErrCorruptTrace, 3, func() Source {
		return &failSource{inner: NewKindedSliceSource(trace, kinds), after: 4}
	})
}

// TestResumeRejectsShortTrace: a packed trace cut anywhere past its
// magic, including inside its index footer, is corrupt, however much of
// it the sweep has already consumed.
func TestResumeRejectsShortTrace(t *testing.T) {
	_, _, data := packKinded(t, 20_000)
	for cut := len(dtrace.PackedMagic); cut < len(data); cut += len(data)/23 + 1 {
		requireRejected(t, fmt.Sprintf("cut at %d of %d bytes", cut, len(data)), cut,
			simerr.ErrCorruptTrace, -1, packedOpener(t, data[:cut]))
	}
	requireRejected(t, "cut before the last byte", len(data)-1,
		simerr.ErrCorruptTrace, -1, packedOpener(t, data[:len(data)-1]))
}

// TestResumeRejectsCorruptSidecar: packed traces whose framing is wrong
// past a valid start (a missing end marker, bytes after the end marker
// or after a valid index footer, a record word longer than any uvarint)
// are corrupt.
func TestResumeRejectsCorruptSidecar(t *testing.T) {
	_, _, indexed := packKinded(t, 5_000)
	fetches := append(uvarint(4000), make([]byte, 4000)...) // 4,000 one-byte fetch records
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no end marker", craftPacked(fetches)},
		{"bytes after the end marker", craftPacked(fetches, uvarint(0), []byte("!!!JUNK!"))},
		{"bytes after the index footer", append(bytes.Clone(indexed), "!!!JUNK!"...)},
		{"eleven-byte record word", craftPacked(uvarint(1), bytes.Repeat([]byte{0xFF}, 10), []byte{1}, uvarint(0))},
	} {
		requireRejected(t, tc.name, len(tc.data), simerr.ErrCorruptTrace, -1, packedOpener(t, tc.data))
	}
}

// TestResumeRejectsForeignSidecar: a kind byte that names no access kind
// (kinds are fetch 0, read 1 and write 2, and a fetch carries no byte)
// is corrupt, not a kind some other format might mean.
func TestResumeRejectsForeignSidecar(t *testing.T) {
	for _, k := range []byte{0, 3, 0xFF} {
		// A record with residual 0, context 0 and the kind flag set,
		// then its kind byte.
		data := craftPacked(uvarint(2), []byte{0}, []byte{1 << 2, k}, uvarint(0))
		requireRejected(t, fmt.Sprintf("kind byte %#x", k), len(data), simerr.ErrCorruptTrace, -1, packedOpener(t, data))
	}
}

// TestResumeRejectsForeignPolicySidecar: a kind array shorter than its
// trace is corrupt for every replacement policy's write-back sweep,
// streamed or materialized for OPT, whether the kinds run out at once,
// mid-chunk or at the last reference.
func TestResumeRejectsForeignPolicySidecar(t *testing.T) {
	trace, kinds := kindedFixedTrace(20_000)
	for _, n := range []int{0, 1, 12_345, len(trace) - 1} {
		requireRejected(t, fmt.Sprintf("%d kinds", n), 0, simerr.ErrCorruptTrace, -1, func() Source {
			return NewKindedSliceSource(trace, kinds[:n])
		})
	}
}

// TestCheckpointHostileHeaders: a block header declaring 2^32-1 or
// 2^64-1 references, alone or after a valid block, ends the sweep as a
// corrupt trace at a cost in proportion to the bytes present, never to
// what the header declares.
func TestCheckpointHostileHeaders(t *testing.T) {
	valid := append(uvarint(2), 0, 0)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"block of 2^32-1 refs then end of input", craftPacked(uvarint(math.MaxUint32))},
		{"block of 2^64-1 refs holding one record", craftPacked(uvarint(math.MaxUint64), []byte{0})},
		{"valid block, then a block of 2^32-1 refs", craftPacked(valid, uvarint(math.MaxUint32), []byte{0})},
	} {
		requireRejected(t, tc.name, len(tc.data), simerr.ErrCorruptTrace, -1, packedOpener(t, tc.data))
	}
}

// everyUnitKindSweeps are two fixed sweeps that between them build each
// unit kind once: hier.Sim (an inclusive L1→L2), stack.Refinement (LRU),
// stack.Family (FIFO), cache.Cache (Random, the stack engine's
// fallback), opt.Family and sharedL1Unit (a non-inclusive PLRU L1→L2)
// under the stack engine, and opt.DirectCache under the direct engine.
// Every level is small and write-back, so FIFO pointers, PLRU bits,
// dirty bits, wmax and writeback histograms all shape the results.
func everyUnitKindSweeps() []struct {
	eng Engine
	hs  []cache.Hierarchy
} {
	wb := func(size, ways int, pol cache.Policy) cache.Config {
		return cache.Config{SizeBytes: size, LineBytes: 16, Ways: ways, Policy: pol, Write: cache.WriteBack}
	}
	return []struct {
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
	}
}

// pinnedResultsSHA256 is the SHA-256 of every counter everyUnitKindSweeps
// produce over a fixed dtrace.Generate trace. A change to it changes
// what some unit kind computes.
const pinnedResultsSHA256 = "6ca0620ad0d42cfdfc130ca4bdb13b1cdeaa84292d7bb18d6f2022dcdb69cda5"

// TestSidecarFormatPinned holds the results of a sweep that builds every
// unit kind to a committed digest, at 1 and 3 workers and chunk sizes
// that do and do not divide the trace.
func TestSidecarFormatPinned(t *testing.T) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 20_000
	trace := dtrace.Generate(cfg)
	kinds := make([]uint8, len(trace))
	for i := range kinds {
		kinds[i] = uint8(i % 3)
	}
	kindsSeen := map[string]bool{}
	units := 0
	for _, s := range everyUnitKindSweeps() {
		p, err := buildHierarchies(s.hs, s.eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range p.units {
			kindsSeen[fmt.Sprintf("%T", u)] = true
		}
		units += len(p.units)
	}
	if units != 7 || len(kindsSeen) != 7 {
		t.Fatalf("the sweeps build %d units of %d kinds, want 7 of 7: %v", units, len(kindsSeen), kindsSeen)
	}
	for _, workers := range []int{1, 3} {
		for _, chunkRefs := range []int{1000, 4096} {
			h := sha256.New()
			for _, s := range everyUnitKindSweeps() {
				hrs, err := RunHierarchies(context.Background(), s.hs, NewKindedSliceSource(trace, kinds),
					Options{Workers: workers, ChunkRefs: chunkRefs, Engine: s.eng})
				if err != nil {
					t.Fatal(err)
				}
				hashResults(h, hrs)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinnedResultsSHA256 {
				t.Errorf("workers=%d chunk=%d: results SHA-256 = %s, want %s", workers, chunkRefs, got, pinnedResultsSHA256)
			}
		}
	}
}

// hashResults writes every counter of every level of hrs to h, in order
// and little-endian, then each hierarchy's back-invalidation counts.
func hashResults(h io.Writer, hrs []cache.HierarchyResult) {
	var b []byte
	for _, hr := range hrs {
		for _, r := range hr.Levels {
			for _, v := range []uint64{r.Accesses, r.Misses, r.RAMRefs, r.FlashRefs,
				r.RAMMisses, r.FlashMisses, r.Writes, r.Writebacks} {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
		}
		b = binary.LittleEndian.AppendUint64(b, hr.BackInvalidations)
		b = binary.LittleEndian.AppendUint64(b, hr.BackInvalDirty)
	}
	h.Write(b)
}

// FuzzCheckpointLoad fuzzes where a cancel lands: a kinded write-back
// sweep of LRU, FIFO, PLRU and Random configurations and a shared-L1
// hierarchy is canceled during its after-th read, at a fuzzed chunk size
// and worker count. The sweep must stop with ErrCanceled naming chunk
// after exactly when that read is not the last one (and finish
// otherwise), leave no goroutine behind, and a rerun on a fresh source
// must match the uninterrupted run bit for bit.
func FuzzCheckpointLoad(f *testing.F) {
	trace, kinds := kindedFixedTrace(6_000)
	hs := singles(kindedRerunSweep())
	hs = append(hs, hierGrid(cache.LRU, cache.WriteBack, cache.NonInclusive, []int{8})[:2]...)
	random := cache.Config{SizeBytes: 2048, LineBytes: 16, Ways: 4, Policy: cache.Random, Write: cache.WriteBack}
	hs = append(hs, cache.Single(random))
	want, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(3), uint16(999), uint8(2))
	f.Add(uint16(0), uint16(0), uint8(1))
	f.Add(uint16(7), uint16(999), uint8(4)) // the last read: the sweep finishes
	f.Fuzz(func(t *testing.T, after, chunk uint16, workers uint8) {
		opts := Options{Workers: 1 + int(workers)%4, ChunkRefs: 1 + int(chunk)%4096}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: int(after), cancel: cancel}
		if after >= 1 && int(after) < reads(len(trace), opts.ChunkRefs) {
			interruptRun(t, ctx, hs, src, opts, simerr.ErrCanceled, int64(after))
		} else {
			base := runtime.NumGoroutine()
			got, err := RunHierarchies(ctx, hs, src, opts)
			if err != nil {
				t.Fatalf("after=%d: %v", after, err)
			}
			compareHierResults(t, "uncanceled", hs, got, want)
			settleGoroutines(t, base)
		}
		got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), opts)
		if err != nil {
			t.Fatal(err)
		}
		compareHierResults(t, "rerun", hs, got, want)
	})
}
