// Checkpoint serialization for the OPT engines. The annotation itself is
// never serialized — it is a pure function of the trace and line size,
// recomputed deterministically on resume — so a blob carries only the
// mutable simulation state: the global trace position, the result
// counters, and the per-way line/next-use/dirty arrays. Blob lengths are
// unambiguous because the sweep checkpointer fingerprints the full
// configuration set (sizes, line sizes, ways, replacement and write
// policies).
package opt

import "palmsim/internal/cache"

// fields lists the family's mutable state in blob order: the trace
// position and shared counters, then each variant's state.
func (f *Family) fields() []any {
	fs := []any{&f.pos, &f.totRAM, &f.totFlash, &f.totWrites}
	for _, v := range f.variants {
		fs = append(fs, &v.res, v.lines, v.nu, v.dirty)
	}
	return fs
}

// AppendState serializes the family's mutable state onto b.
func (f *Family) AppendState(b []byte) []byte { return cache.AppendFields(b, f.fields()...) }

// RestoreState loads state previously produced by AppendState for the
// same configuration group.
func (f *Family) RestoreState(b []byte) error { return cache.RestoreFields(b, f.fields()...) }

// fields lists the reference simulator's mutable state in blob order.
func (d *DirectCache) fields() []any {
	return []any{&d.pos, &d.res, d.lines, d.nu, d.dirty}
}

// AppendState serializes the reference simulator's mutable state onto b.
func (d *DirectCache) AppendState(b []byte) []byte { return cache.AppendFields(b, d.fields()...) }

// RestoreState loads state previously produced by AppendState for the
// same configuration.
func (d *DirectCache) RestoreState(b []byte) error { return cache.RestoreFields(b, d.fields()...) }
