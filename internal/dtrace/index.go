// The PALMIDX1 footer: every trace a PackedWriter writes ends, after the
// 0 end-of-trace marker, with one 88-byte entry per block — the block's
// file offset, its starting reference ordinal, its starting emulated
// tick (from NoteTick) and the four delta contexts as they stood before
// its first record — plus the total reference count. Both decoders read
// a trace from its start, in order, and validate the footer when they
// reach the end marker; nothing else reads it. The per-block ticks key a
// trace's blocks to emulated time; the predictor snapshots are part of
// the format, and the tests hold them to the decoder's state at each
// block.
//
// Footer layout, all little-endian, written after the 0 end marker:
//
//	F:  "PALMIDX1"             8-byte footer magic
//	    uint32 count           index entries
//	    count × 88-byte entry  {offset u64, startRef u64, startTick u64,
//	                            prevAddr [4]i64, prevStride [4]i64}
//	    uint64 totalRefs       references in the trace
//	    uint64 checksum        FNV-1a over bytes [F, here)
//	    uint64 F               file offset of the footer magic
//	    "PALMIDX1"             trailing magic
//
// A trace without a footer (PackTrace's output) ends at the 0 marker and
// decodes the same; any other bytes after the marker are corruption, not
// a silently shorter trace.
package dtrace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// IndexMagic frames the PALMIDX1 footer at both ends.
const IndexMagic = "PALMIDX1"

// indexEntrySize is the encoded size of one IndexEntry.
const indexEntrySize = 8 + 8 + 8 + 8*numContexts + 8*numContexts

// indexFixedSize is the footer size excluding entries: leading magic,
// count, totalRefs, checksum, footer offset, trailing magic.
const indexFixedSize = 8 + 4 + 8 + 8 + 8 + 8

// IndexEntry describes one block boundary.
type IndexEntry struct {
	// Offset is the file offset of the block's length header.
	Offset uint64
	// StartRef is the ordinal of the block's first reference.
	StartRef uint64
	// StartTick is the emulated tick current at the block's first
	// reference (0 throughout for traces written without tick notes).
	StartTick uint64
	// PrevAddr and PrevStride snapshot the delta-predictor contexts as
	// they stood before the block's first record.
	PrevAddr   [numContexts]int64
	PrevStride [numContexts]int64
}

// Index is a parsed PALMIDX1 footer.
type Index struct {
	Entries   []IndexEntry
	TotalRefs uint64
}

// appendFooter encodes the PALMIDX1 footer for entries written so far.
// footOff is the file offset the footer magic will land at.
func appendFooter(b []byte, entries []IndexEntry, totalRefs, footOff uint64) []byte {
	start := len(b)
	b = append(b, IndexMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, e.Offset)
		b = binary.LittleEndian.AppendUint64(b, e.StartRef)
		b = binary.LittleEndian.AppendUint64(b, e.StartTick)
		for _, v := range e.PrevAddr {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		for _, v := range e.PrevStride {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, totalRefs)
	sum := fnv.New64a()
	sum.Write(b[start:])
	b = binary.LittleEndian.AppendUint64(b, sum.Sum64())
	b = binary.LittleEndian.AppendUint64(b, footOff)
	return append(b, IndexMagic...)
}

// parseIndexFooter validates and decodes a footer occupying exactly foot,
// whose first byte sits at file offset footOff, after a trace of
// wantRefs references. Every failure is a plain error; callers wrap it
// as simerr.ErrCorruptTrace.
func parseIndexFooter(foot []byte, footOff, wantRefs uint64) (*Index, error) {
	if len(foot) < 8 || string(foot[:8]) != IndexMagic {
		return nil, fmt.Errorf("trailing bytes after end-of-trace marker are not an index footer")
	}
	if len(foot) < indexFixedSize {
		return nil, fmt.Errorf("truncated index footer: %d bytes", len(foot))
	}
	count := binary.LittleEndian.Uint32(foot[8:12])
	want := uint64(indexFixedSize) + uint64(count)*indexEntrySize
	if uint64(len(foot)) != want {
		return nil, fmt.Errorf("index footer is %d bytes, want %d for %d entries", len(foot), want, count)
	}
	if uint64(count) > wantRefs {
		return nil, fmt.Errorf("index claims %d entries for a %d-reference trace", count, wantRefs)
	}
	body := len(foot) - 8 - 8 - 8 // magic..totalRefs, i.e. checksummed span
	sum := fnv.New64a()
	sum.Write(foot[:body])
	if got, want := binary.LittleEndian.Uint64(foot[body:]), sum.Sum64(); got != want {
		return nil, fmt.Errorf("index footer checksum mismatch: file %#x, computed %#x", got, want)
	}
	if got := binary.LittleEndian.Uint64(foot[body+8:]); got != footOff {
		return nil, fmt.Errorf("index footer claims offset %d, found at %d", got, footOff)
	}
	if string(foot[len(foot)-8:]) != IndexMagic {
		return nil, fmt.Errorf("index footer missing trailing magic")
	}

	ix := &Index{Entries: make([]IndexEntry, count)}
	b := foot[12:]
	for i := range ix.Entries {
		e := &ix.Entries[i]
		e.Offset = binary.LittleEndian.Uint64(b)
		e.StartRef = binary.LittleEndian.Uint64(b[8:])
		e.StartTick = binary.LittleEndian.Uint64(b[16:])
		b = b[24:]
		for c := 0; c < numContexts; c++ {
			e.PrevAddr[c] = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		for c := 0; c < numContexts; c++ {
			e.PrevStride[c] = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	ix.TotalRefs = binary.LittleEndian.Uint64(b)
	if ix.TotalRefs != wantRefs {
		return nil, fmt.Errorf("index claims %d references, trace holds %d", ix.TotalRefs, wantRefs)
	}

	// Structural invariants: entry 0 is the trace head, offsets and
	// starting ordinals strictly ascend, ticks never regress, and every
	// block the index points into lies before the footer.
	for i, e := range ix.Entries {
		switch {
		case i == 0 && (e.Offset != uint64(len(PackedMagic)) || e.StartRef != 0):
			return nil, fmt.Errorf("index entry 0 at offset %d ref %d, want %d and 0", e.Offset, e.StartRef, len(PackedMagic))
		case i > 0 && e.Offset <= ix.Entries[i-1].Offset:
			return nil, fmt.Errorf("index entry %d offset %d not after entry %d", i, e.Offset, i-1)
		case i > 0 && e.StartRef <= ix.Entries[i-1].StartRef:
			return nil, fmt.Errorf("index entry %d startRef %d not after entry %d", i, e.StartRef, i-1)
		case i > 0 && e.StartTick < ix.Entries[i-1].StartTick:
			return nil, fmt.Errorf("index entry %d tick %d regresses", i, e.StartTick)
		case e.StartRef >= ix.TotalRefs:
			return nil, fmt.Errorf("index entry %d startRef %d beyond %d total refs", i, e.StartRef, ix.TotalRefs)
		case e.Offset >= footOff:
			return nil, fmt.Errorf("index entry %d offset %d inside the footer", i, e.Offset)
		}
	}
	return ix, nil
}
