// Checkpoint serialization for the stack engine. A Refinement's mutable
// state is its per-set recency lists, the two depth histograms, the
// kinded write counter, and — when write-back accounting is on — the
// wmax array and writeback histogram; a Family's is the shared MRU
// shortcut state plus every variant's lines, replacement bookkeeping,
// and dirty bits. All sizes are fixed functions of the configuration
// set, which the sweep checkpointer fingerprints (including replacement
// and write policies), so the blob layouts need no internal framing.
package stack

import "palmsim/internal/cache"

// fields lists the refinement's mutable state in blob order.
func (r *Refinement) fields() []any {
	return []any{r.lists, r.histRAM, r.histFlash, &r.writes, r.wmax, r.wbHist}
}

// AppendState serializes the refinement's mutable state onto b.
func (r *Refinement) AppendState(b []byte) []byte { return cache.AppendFields(b, r.fields()...) }

// RestoreState loads state previously produced by AppendState for the
// same geometry.
func (r *Refinement) RestoreState(b []byte) error { return cache.RestoreFields(b, r.fields()...) }

// fields lists the family's mutable state in blob order: the shared
// shortcut keys and counters, then each variant's state.
func (f *Family) fields() []any {
	fs := []any{&f.last, &f.last2, &f.totRAM, &f.totFlash, &f.totWrites}
	for _, v := range f.variants {
		fs = append(fs, &v.res, &v.lastIdx, v.lines, v.rr, v.plru, v.dirty)
	}
	return fs
}

// AppendState serializes the family's mutable state onto b.
func (f *Family) AppendState(b []byte) []byte { return cache.AppendFields(b, f.fields()...) }

// RestoreState loads state previously produced by AppendState for the
// same configuration group.
func (f *Family) RestoreState(b []byte) error { return cache.RestoreFields(b, f.fields()...) }
