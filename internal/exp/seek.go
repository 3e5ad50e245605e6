// Seekable trace adapters: glue between the PALMIDX1 index machinery in
// internal/dtrace and the partitioned sweep runner in internal/sweep.
// The dtrace API returns concrete *dtrace.PackedSource decoders; the
// sweep engine wants its own RangeSource interface, so the adapter lives
// here with the other trace-format plumbing.
package exp

import (
	"palmsim/internal/dtrace"
	"palmsim/internal/sweep"
)

// SeekableTrace adapts an indexed packed trace to sweep.SeekableTrace,
// enabling RunPartitionedHierarchies over one on-disk (or in-memory)
// trace file.
type SeekableTrace struct {
	t *dtrace.IndexedTrace
}

// OpenSeekableTrace opens an indexed packed trace file for partitioned
// sweeping. Traces without a PALMIDX1 footer fail with dtrace.ErrNoIndex;
// corrupt footers fail with simerr.ErrCorruptTrace.
func OpenSeekableTrace(path string) (*SeekableTrace, error) {
	t, err := dtrace.OpenIndexedTrace(path)
	if err != nil {
		return nil, err
	}
	return &SeekableTrace{t: t}, nil
}

// OpenSeekableBytes is OpenSeekableTrace over an in-memory packed trace.
func OpenSeekableBytes(data []byte) (*SeekableTrace, error) {
	t, err := dtrace.OpenIndexedBytes(data)
	if err != nil {
		return nil, err
	}
	return &SeekableTrace{t: t}, nil
}

// Index returns the parsed PALMIDX1 footer.
func (s *SeekableTrace) Index() *dtrace.Index { return s.t.Index() }

// TotalRefs returns the trace's reference count.
func (s *SeekableTrace) TotalRefs() uint64 { return s.t.TotalRefs() }

// SplitPoints returns the seekable partition boundaries; see
// (*dtrace.IndexedTrace).SplitPoints.
func (s *SeekableTrace) SplitPoints(k int) []uint64 { return s.t.SplitPoints(k) }

// OpenRange returns a decoder for refs [startRef, startRef+n) that
// resumes bit-identically from the nearest indexed block boundary.
func (s *SeekableTrace) OpenRange(startRef, n uint64) (sweep.RangeSource, error) {
	src, err := s.t.OpenRange(startRef, n)
	if err != nil {
		return nil, err
	}
	return src, nil
}
