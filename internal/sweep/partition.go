// Partitioned sweeps: decoding one packed trace is inherently serial —
// predictor state threads through every record — so on long traces the
// single producer becomes the bottleneck and the simulation workers
// idle. The PALMIDX1 index (internal/dtrace) breaks that dependency: a
// trace splits at indexed block boundaries into K contiguous ranges,
// each decodable from its own predictor snapshot by an independent
// reader over its own file handle.
//
// Determinism is the design constraint. Every sweep unit must observe
// the complete trace in order — cache state transitions do not commute,
// so handing disjoint ranges to different units and merging their
// counters afterwards cannot be bit-identical to a serial sweep. The
// partitioned source therefore parallelizes the *decode*, not the
// consumption: K range decoders run concurrently, each filling buffers a
// few chunks ahead, while NextChunk drains them strictly in global trace
// order. Downstream, the engine sees an ordinary Source — the worker
// fan-out, checkpoint/resume and cancellation machinery apply unchanged,
// and bit-identity to the serial path holds by construction rather than
// by a merge-correctness argument.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"palmsim/internal/cache"
	"palmsim/internal/simerr"
)

// RangeSource is one seekable range of a trace: a Source that owns its
// reader and is closed when the range is drained or abandoned.
type RangeSource interface {
	Source
	Close() error
}

// SeekableTrace is the factory for range decoders over one indexed
// trace. exp.OpenSeekableTrace adapts dtrace.IndexedTrace to it; tests
// substitute in-memory implementations.
type SeekableTrace interface {
	// TotalRefs returns the trace's reference count.
	TotalRefs() uint64
	// SplitPoints returns at most k+1 ascending ordinals, starting at 0
	// and ending at TotalRefs, that are cheap to seek to. Consecutive
	// points delimit the partitioned ranges.
	SplitPoints(k int) []uint64
	// OpenRange returns a decoder yielding exactly refs [startRef,
	// startRef+n) and then a clean end of trace.
	OpenRange(startRef, n uint64) (RangeSource, error)
}

// partFree is the per-range buffer pool depth: one buffer in the
// consumer's hands, one in the producer's, two queued — enough to keep a
// decoder busy without unbounded read-ahead.
const partFree = 4

// partChunk is one decoded block handed from a range producer to the
// ordered consumer.
type partChunk struct {
	buf []uint32
	n   int
	err error
}

// partition is one contiguous range being decoded ahead: the producer
// pulls empty buffers from free, fills them from src, and sends them on
// out, closing out when the range is drained.
type partition struct {
	src  RangeSource
	out  chan partChunk
	free chan []uint32
}

// PartitionedSource decodes an indexed trace with K concurrent range
// decoders and replays their output in strict global trace order, so it
// satisfies the Source contract with exactly the byte-for-byte reference
// sequence of a serial decode. Close must be called (RunHierarchies does not
// close sources); it is safe after errors and idempotent.
type PartitionedSource struct {
	parts []*partition
	cur   int
	// pending is the unconsumed tail of the chunk being drained;
	// pendingBuf is that chunk's backing buffer, returned to its
	// partition's pool once empty.
	pending    []uint32
	pendingBuf []uint32
	stop       chan struct{}
	wg         sync.WaitGroup
	err        error
	closed     bool
}

// NewPartitionedSource opens k ranges over t (fewer when the trace has
// fewer indexed blocks) and starts their decoders. chunkRefs sizes the
// hand-off buffers; zero or negative selects DefaultChunkRefs.
func NewPartitionedSource(t SeekableTrace, k, chunkRefs int) (*PartitionedSource, error) {
	if chunkRefs <= 0 {
		chunkRefs = DefaultChunkRefs
	}
	points := t.SplitPoints(k)
	s := &PartitionedSource{stop: make(chan struct{})}
	for i := 0; i+1 < len(points); i++ {
		src, err := t.OpenRange(points[i], points[i+1]-points[i])
		if err != nil {
			s.Close()
			return nil, err
		}
		p := &partition{
			src:  src,
			out:  make(chan partChunk, partFree-2),
			free: make(chan []uint32, partFree),
		}
		for j := 0; j < partFree; j++ {
			p.free <- make([]uint32, chunkRefs)
		}
		s.parts = append(s.parts, p)
	}
	for _, p := range s.parts {
		s.wg.Add(1)
		go s.produce(p)
	}
	return s, nil
}

// produce decodes one range ahead of the consumer until the range ends,
// errors, or the source is closed.
func (s *PartitionedSource) produce(p *partition) {
	defer s.wg.Done()
	defer close(p.out)
	for {
		var buf []uint32
		select {
		case buf = <-p.free:
		case <-s.stop:
			return
		}
		n, err := p.src.NextChunk(buf)
		select {
		case p.out <- partChunk{buf: buf, n: n, err: err}:
		case <-s.stop:
			return
		}
		if n == 0 || err != nil {
			return
		}
	}
}

// NextChunk copies the next run of references in global trace order. A
// decode error from any range is returned once and is sticky.
func (s *PartitionedSource) NextChunk(buf []uint32) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := 0
	for n < len(buf) {
		if len(s.pending) == 0 {
			if s.pendingBuf != nil {
				// Hand the drained buffer back; the pool is sized to hold
				// every buffer, so this never blocks or drops.
				select {
				case s.parts[s.cur].free <- s.pendingBuf:
				default:
				}
				s.pendingBuf = nil
			}
			if s.cur >= len(s.parts) {
				break
			}
			c, ok := <-s.parts[s.cur].out
			if !ok {
				s.cur++
				continue
			}
			if c.err != nil {
				s.err = c.err
				return n, c.err
			}
			if c.n == 0 {
				continue
			}
			s.pendingBuf = c.buf
			s.pending = c.buf[:c.n]
		}
		m := copy(buf[n:], s.pending)
		s.pending = s.pending[m:]
		n += m
	}
	return n, nil
}

// Close stops the range decoders, waits them out, and closes every range
// reader. It never blocks on a stuck consumer and may be called at any
// point, including mid-trace and after errors.
func (s *PartitionedSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.stop)
	for _, p := range s.parts {
		// Unpark a producer blocked on a full out channel; the loop ends
		// when the producer closes out on its way down.
		for range p.out {
		}
	}
	s.wg.Wait()
	var first error
	for _, p := range s.parts {
		if err := p.src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Partitions returns how many ranges are being decoded concurrently.
func (s *PartitionedSource) Partitions() int { return len(s.parts) }

// RunPartitionedHierarchies sweeps hierarchies over one indexed trace
// with opts.Partitions concurrent range decoders feeding the ordinary
// engine; a configuration sweep passes its configurations through
// cache.Single. Results are bit-identical to RunHierarchies over a serial
// decode of the same trace — the partitioning parallelizes decoding
// only. Checkpointing, resume and cancellation behave exactly as in
// RunHierarchies.
//
// OPT levels are rejected with simerr.ErrUnsupportedPlan: OPT
// materializes the whole trace for its backward next-use pass, which
// defeats the point of partitioned streaming decode. Run the OPT
// configurations unpartitioned instead.
func RunPartitionedHierarchies(ctx context.Context, hs []cache.Hierarchy, t SeekableTrace, opts Options) ([]cache.HierarchyResult, error) {
	for _, h := range hs {
		for _, cfg := range h.Levels {
			if cfg.Policy == cache.OPT {
				return nil, simerr.UnsupportedPlan("sweep: partitioned", h.String(),
					fmt.Errorf("OPT buffers the whole trace for its backward next-use pass; run it unpartitioned"))
			}
		}
	}
	k := opts.Partitions
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	src, err := NewPartitionedSource(t, k, opts.chunkRefs())
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return RunHierarchies(ctx, hs, src, opts)
}
