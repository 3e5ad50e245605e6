// The packed binary trace format: a compact on-disk representation of
// memory-reference traces. A plain address array spends four bytes per
// reference; real traces are dominated by a handful of interleaved
// constant-stride streams (sequential instruction fetches, stack
// discipline, pointer walks), so the packed format keeps four adaptive
// delta contexts — each remembering its last address and last stride —
// and stores each reference as one unsigned varint:
//
//	record   = uvarint( zigzag(dd) << 3 | hasKind << 2 | ctx )
//	dd       = (addr - prevAddr[ctx]) - prevStride[ctx]
//	[kind]   = one byte, present only when hasKind is set (kind != 0)
//
// The writer picks the context whose prediction is closest (smallest
// zigzag residual); the context index travels in the record, so decoding
// never guesses. A stream continuing at its established stride — a fetch
// run, a stack push sequence, a memcpy — has dd == 0 and costs exactly
// one byte; the access-kind stream rides along as an escape byte paid
// only by data references in kind-annotated traces. Session traces
// shrink 3-5x (EXPERIMENTS.md records measured ratios).
//
// Records are framed into blocks — uvarint(reference count) followed by
// that many records, with a zero count closing the trace — so a
// truncated file is always detected: varints make a length-less stream
// ambiguous under truncation at a record boundary, while here end of
// input anywhere but immediately after the zero marker is corruption.
package dtrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"palmsim/internal/obs"
	"palmsim/internal/simerr"
)

// PackedMagic is the 8-byte header identifying a packed trace.
const PackedMagic = "PALMPKD1"

// numContexts is the adaptive delta-context count; the 2-bit context
// index is stored in every record.
const numContexts = 4

// blockRefs is the writer's framing granularity: ~2 bytes of block
// header per 4096 references.
const blockRefs = 4096

// maxKind is the largest legal access kind (m68k.Access: fetch 0, read 1,
// write 2). Fetches are encoded without an escape byte, so the only valid
// escape-byte values on the wire are 1 and 2 — anything else is
// corruption, not a future extension.
const maxKind = 2

// packedState is the shared predictor state: writer and reader update it
// identically, so the encoding round-trips exactly.
type packedState struct {
	prevAddr   [numContexts]int64
	prevStride [numContexts]int64
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encode picks the best context for addr and returns the record word
// (kind byte, if any, is the caller's concern).
func (st *packedState) encode(addr uint32, kind uint8) uint64 {
	best, bestZZ := 0, ^uint64(0)
	for c := 0; c < numContexts; c++ {
		delta := int64(addr) - st.prevAddr[c]
		if zz := zigzag(delta - st.prevStride[c]); zz < bestZZ {
			best, bestZZ = c, zz
		}
	}
	st.prevStride[best] = int64(addr) - st.prevAddr[best]
	st.prevAddr[best] = int64(addr)
	rec := bestZZ<<3 | uint64(best)
	if kind != 0 {
		rec |= 4
	}
	return rec
}

// decode applies one record word and returns the address plus whether a
// kind byte follows.
func (st *packedState) decode(rec uint64) (addr uint32, hasKind bool) {
	ctx := int(rec & 3)
	stride := st.prevStride[ctx] + unzigzag(rec>>3)
	a := st.prevAddr[ctx] + stride
	st.prevStride[ctx] = stride
	st.prevAddr[ctx] = a
	return uint32(a), rec&4 != 0
}

// TickMark annotates a reference ordinal with the emulated tick current
// when it was recorded. Collectors emit marks sparsely (one per tick
// transition); the index writer folds them into per-block starting ticks.
type TickMark struct {
	// Ref is the ordinal of the first reference recorded at Tick.
	Ref uint64
	// Tick is the emulated tick counter value.
	Tick uint64
}

// writerIndex accumulates PALMIDX1 entries while an indexed writer
// streams blocks.
type writerIndex struct {
	entries []IndexEntry
	pending IndexEntry
	curTick uint64
}

// PackedWriter streams references into the packed format.
type PackedWriter struct {
	w          *bufio.Writer
	st         packedState
	refs       uint64
	bytes      uint64
	block      []byte
	blockCount int
	idx        *writerIndex
	scratch    [binary.MaxVarintLen64 + 1]byte
}

// NewPackedWriter writes the format header and prepares streaming. The
// output carries no index; NewIndexedPackedWriter produces seekable
// traces.
func NewPackedWriter(w io.Writer) (*PackedWriter, error) {
	return newPackedWriter(w, false)
}

// NewIndexedPackedWriter is NewPackedWriter plus a PALMIDX1 footer: every
// block boundary is recorded (offset, starting ref ordinal, starting
// tick, predictor snapshot) and the table is appended after the
// end-of-trace marker on Close. The per-reference encoding — and thus the
// hot path and every byte before the footer — is identical to the
// index-less writer's.
func NewIndexedPackedWriter(w io.Writer) (*PackedWriter, error) {
	return newPackedWriter(w, true)
}

func newPackedWriter(w io.Writer, indexed bool) (*PackedWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(PackedMagic); err != nil {
		return nil, err
	}
	p := &PackedWriter{w: bw, bytes: uint64(len(PackedMagic)),
		block: make([]byte, 0, 2*blockRefs)}
	if indexed {
		p.idx = &writerIndex{}
	}
	return p, nil
}

// NoteTick records the current emulated tick for the index: blocks whose
// first reference is written after this call carry (at least) this
// starting tick. Regressing ticks are ignored — StartTick is monotone by
// format contract. A no-op on index-less writers, and O(1) always, so
// collectors may call it as often as they like without touching the
// encoding hot path.
func (p *PackedWriter) NoteTick(tick uint64) {
	if p.idx != nil && tick > p.idx.curTick {
		p.idx.curTick = tick
	}
}

// WriteRef appends one reference. kind carries an m68k.Access value
// (fetch 0, read 1, write 2); callers without kinds pass 0.
func (p *PackedWriter) WriteRef(addr uint32, kind uint8) error {
	if kind > maxKind {
		return fmt.Errorf("dtrace: invalid access kind %d (max %d)", kind, maxKind)
	}
	if p.blockCount == 0 && p.idx != nil {
		// Snapshot the predictor state as it stands before this block's
		// first record; p.bytes is exactly where the block header will
		// land, since everything before it has been accounted.
		p.idx.pending = IndexEntry{
			Offset:     p.bytes,
			StartRef:   p.refs,
			StartTick:  p.idx.curTick,
			PrevAddr:   p.st.prevAddr,
			PrevStride: p.st.prevStride,
		}
	}
	p.block = binary.AppendUvarint(p.block, p.st.encode(addr, kind))
	if kind != 0 {
		p.block = append(p.block, kind)
	}
	p.blockCount++
	p.refs++
	if p.blockCount == blockRefs {
		return p.flushBlock()
	}
	return nil
}

// flushBlock frames and writes the pending records, if any.
func (p *PackedWriter) flushBlock() error {
	if p.blockCount == 0 {
		return nil
	}
	n := binary.PutUvarint(p.scratch[:], uint64(p.blockCount))
	if _, err := p.w.Write(p.scratch[:n]); err != nil {
		return err
	}
	if _, err := p.w.Write(p.block); err != nil {
		return err
	}
	p.bytes += uint64(n + len(p.block))
	if p.idx != nil {
		p.idx.entries = append(p.idx.entries, p.idx.pending)
	}
	p.block = p.block[:0]
	p.blockCount = 0
	return nil
}

// Refs returns how many references have been written.
func (p *PackedWriter) Refs() uint64 { return p.refs }

// Bytes returns the encoded size so far (header and flushed frames; call
// after Close for the exact file size). With Refs it yields the
// packed-vs-raw ratio against a plain 4 bytes/ref address array.
func (p *PackedWriter) Bytes() uint64 { return p.bytes }

// Close writes the final block, the end-of-trace marker and — for
// indexed writers — the PALMIDX1 footer, then commits buffered output to
// the underlying writer. No references may be written after Close.
func (p *PackedWriter) Close() error {
	if err := p.flushBlock(); err != nil {
		return err
	}
	if err := p.w.WriteByte(0); err != nil {
		return err
	}
	p.bytes++
	if p.idx != nil {
		foot := appendFooter(nil, p.idx.entries, p.refs, p.bytes)
		if _, err := p.w.Write(foot); err != nil {
			return err
		}
		p.bytes += uint64(len(foot))
	}
	return p.w.Flush()
}

// countReader tracks how many bytes have been consumed from a buffered
// reader, so the streaming decoder knows the file offset of whatever
// follows the end-of-trace marker (the PALMIDX1 footer locates itself by
// absolute offset).
type countReader struct {
	r *bufio.Reader
	n uint64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// PackedSource streams addresses out of a packed trace, implementing
// the sweep engine's Source and KindedSource interfaces. NextChunk
// decodes and discards the kind escape bytes (address-only sweeps);
// NextChunkKinded surfaces them, which write-policy sweeps require.
type PackedSource struct {
	r         *countReader
	st        packedState
	refs      uint64
	blockLeft uint64
	done      bool

	// limit and ranged bound index-seeked sources: the decoder stops
	// cleanly once refs reaches limit and treats an earlier end-of-trace
	// marker as corruption (the index promised more references).
	limit  uint64
	ranged bool
	// closer, when non-nil, owns the underlying reader (ranged sources
	// opened through an IndexedTrace hold their own file handle).
	closer io.Closer

	// ObsRefs, when non-nil, counts decoded references per NextChunk call.
	ObsRefs *obs.Counter
}

// NewPackedSource validates the header and prepares streaming.
func NewPackedSource(r io.Reader) (*PackedSource, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	cr := &countReader{r: br}
	var hdr [8]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil || string(hdr[:]) != PackedMagic {
		return nil, simerr.CorruptTrace("dtrace: open", 0, fmt.Errorf("not a packed trace"))
	}
	return &PackedSource{r: cr}, nil
}

// newPackedSourceAt wraps a reader already positioned at e.Offset,
// restoring e's predictor snapshot so decoding resumes bit-identically.
// The source yields references [e.StartRef, limit) and then reports a
// clean end of trace.
func newPackedSourceAt(r io.Reader, e IndexEntry, limit uint64, closer io.Closer) *PackedSource {
	src := &PackedSource{
		r:      &countReader{r: bufio.NewReaderSize(r, 1<<16), n: e.Offset},
		refs:   e.StartRef,
		limit:  limit,
		ranged: true,
		closer: closer,
	}
	src.st.prevAddr = e.PrevAddr
	src.st.prevStride = e.PrevStride
	return src
}

// Close releases the underlying reader when the source owns one; plain
// NewPackedSource streams and in-memory ranges make it a no-op.
func (s *PackedSource) Close() error {
	if s.closer == nil {
		return nil
	}
	err := s.closer.Close()
	s.closer = nil
	return err
}

// discard decodes and drops n references, advancing the source from an
// indexed block boundary to an interior starting ordinal.
func (s *PackedSource) discard(n uint64) error {
	var buf [512]uint32
	for n > 0 {
		want := uint64(len(buf))
		if n < want {
			want = n
		}
		got, err := s.NextChunk(buf[:want])
		if err != nil {
			return err
		}
		if got == 0 {
			return simerr.CorruptTrace("dtrace: seek", int64(s.refs),
				fmt.Errorf("trace ended at ref %d while seeking", s.refs))
		}
		n -= uint64(got)
	}
	return nil
}

// NextChunk decodes up to len(buf) addresses. The trace ends only at the
// zero end-of-trace marker ((n, nil) then (0, nil)); end of input
// anywhere else — mid-record, mid-block, or in place of a block header —
// is reported as corruption, so truncated files never decode silently.
func (s *PackedSource) NextChunk(buf []uint32) (int, error) {
	return s.next(buf, nil)
}

// NextChunkKinded decodes up to min(len(buf), len(kinds)) (address,
// kind) pairs; references encoded without an escape byte are fetches
// (kind 0). Both entry points advance the same stream position.
func (s *PackedSource) NextChunkKinded(buf []uint32, kinds []uint8) (int, error) {
	if len(kinds) < len(buf) {
		buf = buf[:len(kinds)]
	}
	return s.next(buf, kinds)
}

func (s *PackedSource) next(buf []uint32, kinds []uint8) (int, error) {
	n := 0
	for n < len(buf) && !s.done {
		if s.ranged && s.refs == s.limit {
			s.done = true
			break
		}
		if s.blockLeft == 0 {
			count, err := binary.ReadUvarint(s.r)
			if err != nil {
				return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs), fmt.Errorf("truncated packed trace after %d refs: missing end-of-trace marker", s.refs))
			}
			if count == 0 {
				if s.ranged {
					return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs),
						fmt.Errorf("trace ended at ref %d, index promised %d", s.refs, s.limit))
				}
				s.done = true
				if err := s.checkTrailer(); err != nil {
					return n, err
				}
				break
			}
			s.blockLeft = count
			continue
		}
		rec, err := binary.ReadUvarint(s.r)
		if err != nil {
			return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs), fmt.Errorf("corrupt packed trace after %d refs: %w", s.refs, err))
		}
		addr, hasKind := s.st.decode(rec)
		var k uint8
		if hasKind {
			k, err = s.r.ReadByte()
			if err != nil {
				return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs), fmt.Errorf("corrupt packed trace after %d refs: missing kind byte", s.refs))
			}
			if k == 0 || k > maxKind {
				return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs), fmt.Errorf("corrupt packed trace after %d refs: invalid kind byte %d", s.refs, k))
			}
		}
		buf[n] = addr
		if kinds != nil {
			kinds[n] = k
		}
		n++
		s.refs++
		s.blockLeft--
	}
	s.ObsRefs.Add(uint64(n))
	return n, nil
}

// checkTrailer validates whatever follows the end-of-trace marker: either
// nothing (an index-less trace) or a well-formed PALMIDX1 footer.
// Trailing garbage and corrupt footers are reported as corruption, with
// exactly the acceptance rule UnpackTrace applies, so the streaming and
// one-shot decoders agree on every byte string.
func (s *PackedSource) checkTrailer() error {
	footOff := s.r.n
	rest, err := io.ReadAll(s.r)
	if err != nil {
		return simerr.CorruptTrace("dtrace: unpack", int64(s.refs), err)
	}
	if len(rest) == 0 {
		return nil
	}
	if _, err := parseIndexFooter(rest, footOff, s.refs, true); err != nil {
		return simerr.CorruptTrace("dtrace: unpack", int64(s.refs), err)
	}
	return nil
}

// PackTrace serializes a whole trace into the packed format in memory.
// kinds may be nil (all references written as kind 0) or parallel to
// addrs.
func PackTrace(addrs []uint32, kinds []uint8) ([]byte, error) {
	if kinds != nil && len(kinds) != len(addrs) {
		return nil, fmt.Errorf("dtrace: trace has %d refs but %d kinds", len(addrs), len(kinds))
	}
	for i, k := range kinds {
		if k > maxKind {
			return nil, fmt.Errorf("dtrace: invalid access kind %d at ref %d (max %d)", k, i, maxKind)
		}
	}
	out := make([]byte, 0, len(PackedMagic)+2*len(addrs))
	out = append(out, PackedMagic...)
	var st packedState
	for lo := 0; lo < len(addrs); lo += blockRefs {
		hi := lo + blockRefs
		if hi > len(addrs) {
			hi = len(addrs)
		}
		out = binary.AppendUvarint(out, uint64(hi-lo))
		for i := lo; i < hi; i++ {
			var k uint8
			if kinds != nil {
				k = kinds[i]
			}
			out = binary.AppendUvarint(out, st.encode(addrs[i], k))
			if k != 0 {
				out = append(out, k)
			}
		}
	}
	return append(out, 0), nil
}

// UnpackTrace parses a packed trace back into addresses and kinds.
func UnpackTrace(data []byte) (addrs []uint32, kinds []uint8, err error) {
	if len(data) < len(PackedMagic) || string(data[:len(PackedMagic)]) != PackedMagic {
		return nil, nil, simerr.CorruptTrace("dtrace: unpack", 0, fmt.Errorf("not a packed trace"))
	}
	var st packedState
	i := len(PackedMagic)
	for {
		count, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return nil, nil, simerr.CorruptTrace("dtrace: unpack", int64(len(addrs)), fmt.Errorf("truncated packed trace at byte %d: missing end-of-trace marker", i))
		}
		i += n
		if count == 0 {
			if i < len(data) {
				if _, err := parseIndexFooter(data[i:], uint64(i), uint64(len(addrs)), true); err != nil {
					return nil, nil, simerr.CorruptTrace("dtrace: unpack", int64(len(addrs)), err)
				}
			}
			return addrs, kinds, nil
		}
		for ; count > 0; count-- {
			rec, n := binary.Uvarint(data[i:])
			if n <= 0 {
				return nil, nil, simerr.CorruptTrace("dtrace: unpack", int64(len(addrs)), fmt.Errorf("corrupt packed trace at byte %d", i))
			}
			i += n
			addr, hasKind := st.decode(rec)
			var kind uint8
			if hasKind {
				if i >= len(data) {
					return nil, nil, simerr.CorruptTrace("dtrace: unpack", int64(len(addrs)), fmt.Errorf("corrupt packed trace at byte %d: missing kind byte", i))
				}
				kind = data[i]
				if kind == 0 || kind > maxKind {
					return nil, nil, simerr.CorruptTrace("dtrace: unpack", int64(len(addrs)), fmt.Errorf("corrupt packed trace at byte %d: invalid kind byte %d", i, kind))
				}
				i++
			}
			addrs = append(addrs, addr)
			kinds = append(kinds, kind)
		}
	}
}

// PackTraceIndexed is PackTrace plus a PALMIDX1 footer, making the
// output seekable. marks, which may be nil, carries sparse tick
// annotations in ascending Ref order; each mark's tick applies from its
// Ref until the next mark's.
func PackTraceIndexed(addrs []uint32, kinds []uint8, marks []TickMark) ([]byte, error) {
	if kinds != nil && len(kinds) != len(addrs) {
		return nil, fmt.Errorf("dtrace: trace has %d refs but %d kinds", len(addrs), len(kinds))
	}
	var buf bytes.Buffer
	buf.Grow(len(PackedMagic) + 2*len(addrs))
	w, err := NewIndexedPackedWriter(&buf)
	if err != nil {
		return nil, err
	}
	mi := 0
	for i, a := range addrs {
		for mi < len(marks) && marks[mi].Ref <= uint64(i) {
			w.NoteTick(marks[mi].Tick)
			mi++
		}
		var k uint8
		if kinds != nil {
			k = kinds[i]
		}
		if err := w.WriteRef(a, k); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
