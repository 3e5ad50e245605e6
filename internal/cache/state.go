// Checkpoint serialization. Every checkpointable simulator — the direct
// Cache here, the stack, OPT and hierarchy engines, and the sweep's
// shared-L1 groups — lists its mutable state once as an ordered field
// list, and AppendFields/RestoreFields turn that list into a flat
// little-endian blob and back. A Cache's list is its result counters,
// the Random policy's PRNG word, the line array, the replacement
// bookkeeping, and the optional PLRU tree bits and write-back dirty
// bits, so a sweep interrupted mid-trace resumes bit-identical to an
// uninterrupted run for every policy, not just LRU.
//
// Configurations are never encoded: the sweep checkpointer fingerprints
// them (including the replacement and write policies), and every slice
// in a field list is sized by the configuration, so the only framing a
// blob needs is the length prefix of a nested simulator.
package cache

import (
	"encoding/binary"
	"fmt"
)

// Stateful is a checkpointable simulator. AppendState serializes its
// mutable state onto b; RestoreState loads a blob AppendState produced
// for the same configuration. A rejected blob may leave the simulator
// partly restored, so a caller that gets an error discards it.
type Stateful interface {
	AppendState(b []byte) []byte
	RestoreState(b []byte) error
}

// counters lists the Result counters a checkpoint carries, in blob order.
func (r *Result) counters() [8]*uint64 {
	return [8]*uint64{
		&r.Accesses, &r.Misses, &r.RAMRefs, &r.FlashRefs,
		&r.RAMMisses, &r.FlashMisses, &r.Writes, &r.Writebacks,
	}
}

// AppendFields encodes an ordered field list onto b, little-endian: a
// *Result as its eight counters; *uint32, *int32 and *uint64 as one
// word; []uint32 and []uint64 element by element; []uint8 verbatim;
// []bool as 0/1 bytes; and a nested Stateful as a uint32 length followed
// by its blob. Any other field type is a bug in a static field list and
// panics.
func AppendFields(b []byte, fields ...any) []byte {
	le := binary.LittleEndian
	for _, f := range fields {
		switch f := f.(type) {
		case *Result:
			for _, p := range f.counters() {
				b = le.AppendUint64(b, *p)
			}
		case *uint32:
			b = le.AppendUint32(b, *f)
		case *int32:
			b = le.AppendUint32(b, uint32(*f))
		case *uint64:
			b = le.AppendUint64(b, *f)
		case []uint32:
			for _, v := range f {
				b = le.AppendUint32(b, v)
			}
		case []uint64:
			for _, v := range f {
				b = le.AppendUint64(b, v)
			}
		case []uint8:
			b = append(b, f...)
		case []bool:
			for _, v := range f {
				var x byte
				if v {
					x = 1
				}
				b = append(b, x)
			}
		case Stateful:
			at := len(b)
			b = f.AppendState(le.AppendUint32(b, 0))
			le.PutUint32(b[at:], uint32(len(b)-at-4))
		default:
			panic(fmt.Sprintf("cache: unsupported state field %T", f))
		}
	}
	return b
}

// RestoreFields decodes a blob AppendFields produced from the same field
// list, rejecting short input and trailing bytes.
func RestoreFields(b []byte, fields ...any) error {
	le := binary.LittleEndian
	for i, f := range fields {
		n := fieldSize(f, b)
		if uint64(len(b)) < n {
			return fmt.Errorf("cache: state blob truncated in field %d (%T): %d bytes left, want %d", i, f, len(b), n)
		}
		p := b[:n]
		b = b[n:]
		switch f := f.(type) {
		case *Result:
			for j, c := range f.counters() {
				*c = le.Uint64(p[8*j:])
			}
		case *uint32:
			*f = le.Uint32(p)
		case *int32:
			*f = int32(le.Uint32(p))
		case *uint64:
			*f = le.Uint64(p)
		case []uint32:
			for j := range f {
				f[j] = le.Uint32(p[4*j:])
			}
		case []uint64:
			for j := range f {
				f[j] = le.Uint64(p[8*j:])
			}
		case []uint8:
			copy(f, p)
		case []bool:
			for j := range f {
				f[j] = p[j] != 0
			}
		case Stateful:
			if err := f.RestoreState(p[4:]); err != nil {
				return fmt.Errorf("field %d (%T): %w", i, f, err)
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("cache: %d trailing bytes in state blob", len(b))
	}
	return nil
}

// fieldSize returns how many bytes field f takes at the front of b: a
// fixed width for words and configuration-sized slices, and for a
// nested Stateful its length prefix plus the length that prefix names.
func fieldSize(f any, b []byte) uint64 {
	switch f := f.(type) {
	case *Result:
		return 8 * 8
	case *uint32, *int32:
		return 4
	case *uint64:
		return 8
	case []uint32:
		return 4 * uint64(len(f))
	case []uint64:
		return 8 * uint64(len(f))
	case []uint8:
		return uint64(len(f))
	case []bool:
		return uint64(len(f))
	case Stateful:
		if len(b) < 4 {
			return 4
		}
		return 4 + uint64(binary.LittleEndian.Uint32(b))
	}
	panic(fmt.Sprintf("cache: unsupported state field %T", f))
}

// fields lists the cache's mutable state in blob order.
func (c *Cache) fields() []any {
	return []any{&c.res, &c.randState, c.lines, c.order, c.plru, c.dirty}
}

// AppendState serializes the cache's mutable state onto b.
func (c *Cache) AppendState(b []byte) []byte { return AppendFields(b, c.fields()...) }

// RestoreState loads state previously produced by AppendState for the
// same configuration.
func (c *Cache) RestoreState(b []byte) error { return RestoreFields(b, c.fields()...) }
