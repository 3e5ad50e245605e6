// The PALMIDX1 block index: the packed PALMPKD1 format is stream-only by
// construction — stride-predictor state threads through every record, so
// decoding ref N requires decoding everything before it. The index makes
// a packed trace seekable without touching the encoding: at every block
// boundary the writer snapshots the four delta contexts (64 bytes) plus
// the block's file offset, starting reference ordinal and starting
// emulated tick, and appends the table as a self-locating footer after
// the end-of-trace marker. A reader can then restore the predictor
// snapshot, seek to the block's byte offset, and resume decoding
// bit-identically: OpenRange decodes any slice of references, SeekRef
// any suffix, and SeekTick the suffix that starts at an emulated tick.
// Sweeps read a trace from its start, in order, through one PackedSource.
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
//	    "PALMIDX1"             trailing magic (presence probe)
//
// The trailing magic makes index detection unambiguous: a valid
// index-less packed trace always ends with the 0x00 end-of-trace marker,
// so a file ending in "PALMIDX1" carries an index and anything else does
// not. Old index-less traces keep decoding everywhere unchanged; traces
// whose trailing bytes are neither absent nor a checksummed footer are
// corrupt, not silently truncated.
package dtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"palmsim/internal/simerr"
)

// IndexMagic frames the PALMIDX1 footer at both ends.
const IndexMagic = "PALMIDX1"

// indexEntrySize is the encoded size of one IndexEntry.
const indexEntrySize = 8 + 8 + 8 + 8*numContexts + 8*numContexts

// indexFixedSize is the footer size excluding entries: leading magic,
// count, totalRefs, checksum, footer offset, trailing magic.
const indexFixedSize = 8 + 4 + 8 + 8 + 8 + 8

// IndexEntry describes one seekable block boundary.
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

// FindRef returns the index of the last entry whose StartRef is <= ref,
// or -1 when there are no entries.
func (ix *Index) FindRef(ref uint64) int {
	lo, hi := 0, len(ix.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.Entries[mid].StartRef <= ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// FindTick returns the index of the last entry whose StartTick is <=
// tick. When every entry starts later than tick, it returns 0 (seeking
// before the first boundary means starting at the trace head); with no
// entries it returns -1.
func (ix *Index) FindTick(tick uint64) int {
	if len(ix.Entries) == 0 {
		return -1
	}
	lo, hi := 0, len(ix.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.Entries[mid].StartTick <= tick {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
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
// whose first byte sits at file offset footOff. When haveRefs is set the
// footer's totalRefs must equal wantRefs (the streaming decoders know how
// many references preceded the footer; the tail-probing open path does
// not). Every failure is a plain error; callers wrap it as
// simerr.ErrCorruptTrace.
func parseIndexFooter(foot []byte, footOff, wantRefs uint64, haveRefs bool) (*Index, error) {
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
	if haveRefs && uint64(count) > wantRefs {
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
	if haveRefs && ix.TotalRefs != wantRefs {
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

// ErrNoIndex reports a structurally valid packed trace that simply
// carries no PALMIDX1 footer — the normal state of traces written before
// the index existed, or by NewPackedWriter. Callers that require seeking
// should surface it as "re-pack the trace with an index".
var ErrNoIndex = errors.New("dtrace: packed trace has no index")

// IndexedTrace is an opened packed trace with a validated index: a
// factory for independently seekable decoders over one underlying trace.
// Every OpenRange/SeekRef/SeekTick call opens its own reader, so ranges
// decode concurrently without sharing file-position state.
type IndexedTrace struct {
	idx  *Index
	open func() (io.ReadSeeker, io.Closer, error)
}

// OpenIndexedTrace opens a packed trace file and its footer index. A
// file without a footer fails with ErrNoIndex; a present-but-invalid
// footer fails with simerr.ErrCorruptTrace.
func OpenIndexedTrace(path string) (*IndexedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	idx, err := readIndexTail(io.NewSectionReader(f, 0, st.Size()), st.Size())
	if err != nil {
		return nil, err
	}
	return &IndexedTrace{idx: idx, open: func() (io.ReadSeeker, io.Closer, error) {
		rf, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return rf, rf, nil
	}}, nil
}

// OpenIndexedBytes is OpenIndexedTrace over an in-memory packed trace.
func OpenIndexedBytes(data []byte) (*IndexedTrace, error) {
	idx, err := readIndexTail(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return &IndexedTrace{idx: idx, open: func() (io.ReadSeeker, io.Closer, error) {
		return bytes.NewReader(data), nil, nil
	}}, nil
}

// readIndexTail probes the trailing magic, follows the footer offset and
// validates the footer. r must cover the whole trace.
func readIndexTail(r io.ReaderAt, size int64) (*Index, error) {
	corrupt := func(err error) error {
		return simerr.CorruptTrace("dtrace: open index", 0, err)
	}
	var head [8]byte
	if size < int64(len(PackedMagic)) {
		return nil, corrupt(fmt.Errorf("not a packed trace"))
	}
	if _, err := r.ReadAt(head[:], 0); err != nil || string(head[:]) != PackedMagic {
		return nil, corrupt(fmt.Errorf("not a packed trace"))
	}
	if size < int64(len(PackedMagic))+1+indexFixedSize {
		return nil, ErrNoIndex
	}
	var tail [16]byte // footer-offset field + trailing magic
	if _, err := r.ReadAt(tail[:], size-16); err != nil {
		return nil, corrupt(err)
	}
	if string(tail[8:]) != IndexMagic {
		return nil, ErrNoIndex
	}
	footOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footOff < int64(len(PackedMagic))+1 || footOff > size-indexFixedSize {
		return nil, corrupt(fmt.Errorf("index footer offset %d out of range for %d-byte trace", footOff, size))
	}
	foot := make([]byte, size-footOff)
	if _, err := r.ReadAt(foot, footOff); err != nil {
		return nil, corrupt(err)
	}
	idx, err := parseIndexFooter(foot, uint64(footOff), 0, false)
	if err != nil {
		return nil, corrupt(err)
	}
	return idx, nil
}

// Index returns the parsed footer.
func (t *IndexedTrace) Index() *Index { return t.idx }

// TotalRefs returns the trace's reference count.
func (t *IndexedTrace) TotalRefs() uint64 { return t.idx.TotalRefs }

// OpenRange returns a decoder positioned exactly at startRef that yields
// exactly n references and then reports a clean end of trace. The
// returned source owns its reader; callers Close it when done.
func (t *IndexedTrace) OpenRange(startRef, n uint64) (*PackedSource, error) {
	if startRef > t.idx.TotalRefs || n > t.idx.TotalRefs-startRef {
		return nil, simerr.CorruptTrace("dtrace: seek", int64(startRef),
			fmt.Errorf("range [%d, %d) beyond %d total refs", startRef, startRef+n, t.idx.TotalRefs))
	}
	if n == 0 {
		return &PackedSource{done: true, refs: startRef}, nil
	}
	j := t.idx.FindRef(startRef)
	if j < 0 {
		return nil, simerr.CorruptTrace("dtrace: seek", int64(startRef), fmt.Errorf("index has no entries"))
	}
	e := t.idx.Entries[j]
	rs, closer, err := t.open()
	if err != nil {
		return nil, err
	}
	if _, err := rs.Seek(int64(e.Offset), io.SeekStart); err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	src := newPackedSourceAt(rs, e, startRef+n, closer)
	if err := src.discard(startRef - e.StartRef); err != nil {
		src.Close()
		return nil, err
	}
	return src, nil
}

// SeekRef returns a decoder positioned exactly at ref, running to the end
// of the trace.
func (t *IndexedTrace) SeekRef(ref uint64) (*PackedSource, error) {
	return t.OpenRange(ref, t.idx.TotalRefs-ref)
}

// SeekTick returns a decoder positioned at the last indexed block
// boundary whose starting tick is <= tick, plus that boundary's reference
// ordinal and tick. Ticks are block-granular: the trace resumes at or
// before the requested tick, never after it (except when even the first
// block starts later, in which case decoding starts at the trace head).
func (t *IndexedTrace) SeekTick(tick uint64) (src *PackedSource, startRef, startTick uint64, err error) {
	j := t.idx.FindTick(tick)
	if j < 0 {
		s, err := t.OpenRange(0, 0)
		return s, 0, 0, err
	}
	e := t.idx.Entries[j]
	s, err := t.OpenRange(e.StartRef, t.idx.TotalRefs-e.StartRef)
	return s, e.StartRef, e.StartTick, err
}
