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
	"slices"

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

// maxRecordBytes bounds one encoded record: the uvarint record word plus
// the kind byte.
const maxRecordBytes = binary.MaxVarintLen64 + 1

// appendRecords is the block encoder: it appends the records of addrs
// (kinds parallel to it, or nil for all fetches) to dst, exactly as
// encode, binary.AppendUvarint and the kind byte would record by record.
// Like encode it takes the lowest-index context with the smallest zigzag
// residual; it computes all four residuals and picks with conditional
// moves, since which context wins is too irregular to predict. It
// returns the extended slice and how many references it encoded, which
// is fewer than len(addrs) only when kinds[i] is not a valid access kind;
// the records before that one are appended.
func (st *packedState) appendRecords(dst []byte, addrs []uint32, kinds []uint8) ([]byte, int) {
	dst = slices.Grow(dst, maxRecordBytes*len(addrs))
	out := dst[len(dst):cap(dst)]
	pa, ps := st.prevAddr, st.prevStride
	w := 0
	for i, addr := range addrs {
		var kind uint8
		if kinds != nil {
			if kind = kinds[i]; kind > maxKind {
				st.prevAddr, st.prevStride = pa, ps
				return dst[:len(dst)+w], i
			}
		}
		a := int64(addr)
		z1, z2, z3 := zigzag(a-pa[1]-ps[1]), zigzag(a-pa[2]-ps[2]), zigzag(a-pa[3]-ps[3])
		best, bestZZ := 0, zigzag(a-pa[0]-ps[0])
		if z1 < bestZZ {
			best, bestZZ = 1, z1
		}
		if z2 < bestZZ {
			best, bestZZ = 2, z2
		}
		if z3 < bestZZ {
			best, bestZZ = 3, z3
		}
		ps[best] = a - pa[best]
		pa[best] = a
		rec := bestZZ<<3 | uint64(best)
		hasKind := 0
		if kind != 0 {
			rec |= 4
			hasKind = 1
		}
		for rec >= 0x80 {
			out[w] = byte(rec) | 0x80
			rec >>= 7
			w++
		}
		// The kind byte is stored either way and kept only when set.
		out[w] = byte(rec)
		out[w+1] = kind
		w += 1 + hasKind
	}
	st.prevAddr, st.prevStride = pa, ps
	return dst[:len(dst)+w], len(addrs)
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

// maxRunVarint is the longest record word decodeRecords reads itself: nine
// bytes hold 63 bits, so it never meets the overflow binary.ReadUvarint
// reports for a tenth byte above 1. Real records take at most six.
const maxRunVarint = binary.MaxVarintLen64 - 1

// decodeRecords is the block decoder: it decodes records from src into
// addrs (and their kinds into kinds, when non-nil) until addrs is full or
// the next record is not one it may decode alone, and returns how many
// references it decoded and how many bytes of src they took. It stops
// before a record that does not lie wholly in src, whose record word is
// longer than maxRunVarint bytes, or whose kind byte is not a valid kind:
// those are left to the record-at-a-time path, which reads across a
// refill and reports every error. Each record it takes it decodes exactly
// as binary.Uvarint and decode would.
func (st *packedState) decodeRecords(src []byte, addrs []uint32, kinds []uint8) (n, used int) {
	pa, ps := st.prevAddr, st.prevStride
	r := 0
records:
	for n < len(addrs) {
		if r >= len(src) {
			break
		}
		j := r
		rec := uint64(src[j])
		j++
		if rec >= 0x80 {
			rec &= 0x7f
			for shift := uint(7); ; shift += 7 {
				if j >= len(src) || j-r == maxRunVarint {
					break records
				}
				b := src[j]
				j++
				if b < 0x80 {
					rec |= uint64(b) << shift
					break
				}
				rec |= uint64(b&0x7f) << shift
			}
		}
		var kind uint8
		if rec&4 != 0 {
			if j >= len(src) {
				break
			}
			if kind = src[j]; kind == 0 || kind > maxKind {
				break
			}
			j++
		}
		c := rec & 3
		stride := ps[c] + unzigzag(rec>>3)
		ps[c] = stride
		pa[c] += stride
		addrs[n] = uint32(pa[c])
		if kinds != nil {
			kinds[n] = kind
		}
		n++
		r = j
	}
	st.prevAddr, st.prevStride = pa, ps
	return n, r
}

// TickMark annotates a reference ordinal with the emulated tick current
// when it was recorded. Collectors emit marks sparsely (one per tick
// transition); PackTraceIndexed folds them into the footer's per-block
// starting ticks.
type TickMark struct {
	// Ref is the ordinal of the first reference recorded at Tick.
	Ref uint64
	// Tick is the emulated tick counter value.
	Tick uint64
}

// PackedWriter streams references into the packed format and records
// a PALMIDX1 footer entry at every block boundary.
type PackedWriter struct {
	w          *bufio.Writer
	st         packedState
	refs       uint64
	bytes      uint64
	block      []byte
	blockCount int
	entries    []IndexEntry
	tick       uint64
	scratch    [binary.MaxVarintLen64 + 1]byte
}

// NewPackedWriter writes the format header and prepares streaming. Every
// block boundary is recorded (offset, starting ref ordinal, starting
// tick, predictor snapshot), and Close appends the table as a PALMIDX1
// footer after the end-of-trace marker; every byte before the footer is
// what PackTrace writes for the same references.
func NewPackedWriter(w io.Writer) (*PackedWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(PackedMagic); err != nil {
		return nil, err
	}
	return &PackedWriter{w: bw, bytes: uint64(len(PackedMagic)),
		block: make([]byte, 0, maxRecordBytes*blockRefs)}, nil
}

// NoteTick records the current emulated tick for the footer: blocks
// whose first reference is written after this call carry (at least) this
// starting tick. Regressing ticks are ignored — StartTick is monotone by
// format contract. It is O(1), so collectors may call it as often as
// they like without touching the encoding hot path.
func (p *PackedWriter) NoteTick(tick uint64) {
	if tick > p.tick {
		p.tick = tick
	}
}

// WriteRefs appends a run of references. kinds is parallel to addrs and
// carries m68k.Access values (fetch 0, read 1, write 2); callers without
// kinds pass nil. An invalid kind is an error: the references before it
// have been written, and the writer stays usable.
func (p *PackedWriter) WriteRefs(addrs []uint32, kinds []uint8) error {
	if kinds != nil && len(kinds) != len(addrs) {
		return fmt.Errorf("dtrace: run has %d refs but %d kinds", len(addrs), len(kinds))
	}
	for len(addrs) > 0 {
		if p.blockCount == 0 {
			// Snapshot the predictor state as it stands before this block's
			// first record; p.bytes is exactly where the block header will
			// land, since everything before it has been accounted.
			p.entries = append(p.entries, IndexEntry{
				Offset:     p.bytes,
				StartRef:   p.refs,
				StartTick:  p.tick,
				PrevAddr:   p.st.prevAddr,
				PrevStride: p.st.prevStride,
			})
		}
		run := min(len(addrs), blockRefs-p.blockCount)
		var k []uint8
		if kinds != nil {
			k = kinds[:run]
		}
		var n int
		p.block, n = p.st.appendRecords(p.block, addrs[:run], k)
		p.blockCount += n
		p.refs += uint64(n)
		if n < run {
			if p.blockCount == 0 {
				p.entries = p.entries[:len(p.entries)-1] // the block holds no record
			}
			return fmt.Errorf("dtrace: invalid access kind %d (max %d)", k[n], maxKind)
		}
		if p.blockCount == blockRefs {
			if err := p.flushBlock(); err != nil {
				return err
			}
		}
		addrs = addrs[run:]
		if kinds != nil {
			kinds = kinds[run:]
		}
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

// Close writes the final block, the end-of-trace marker and the PALMIDX1
// footer, then commits buffered output to the underlying writer. No
// references may be written after Close.
func (p *PackedWriter) Close() error {
	if err := p.flushBlock(); err != nil {
		return err
	}
	if err := p.w.WriteByte(0); err != nil {
		return err
	}
	p.bytes++
	foot := appendFooter(nil, p.entries, p.refs, p.bytes)
	if _, err := p.w.Write(foot); err != nil {
		return err
	}
	p.bytes += uint64(len(foot))
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
		if s.blockLeft == 0 {
			count, err := binary.ReadUvarint(s.r)
			if err != nil {
				return n, simerr.CorruptTrace("dtrace: unpack", int64(s.refs), fmt.Errorf("truncated packed trace after %d refs: missing end-of-trace marker", s.refs))
			}
			if count == 0 {
				s.done = true
				if err := s.checkTrailer(); err != nil {
					return n, err
				}
				break
			}
			s.blockLeft = count
			continue
		}
		// Decode what the reader holds buffered in one run; a record the
		// run stops short of (one that straddles a refill, or one to
		// reject) takes the record-at-a-time path below.
		run := min(uint64(len(buf)-n), s.blockLeft)
		var runKinds []uint8
		if kinds != nil {
			runKinds = kinds[n : n+int(run)]
		}
		held, _ := s.r.r.Peek(s.r.r.Buffered())
		if got, used := s.st.decodeRecords(held, buf[n:n+int(run)], runKinds); got > 0 {
			s.r.r.Discard(used) // used <= Buffered(), so this cannot fail
			s.r.n += uint64(used)
			n += got
			s.refs += uint64(got)
			s.blockLeft -= uint64(got)
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
	if _, err := parseIndexFooter(rest, footOff, s.refs); err != nil {
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
				if _, err := parseIndexFooter(data[i:], uint64(i), uint64(len(addrs))); err != nil {
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

// PackTraceIndexed is PackTrace plus a PALMIDX1 footer, through
// NewPackedWriter. marks, which may be nil, carries sparse tick
// annotations in ascending Ref order; each mark's tick applies from its
// Ref until the next mark's.
func PackTraceIndexed(addrs []uint32, kinds []uint8, marks []TickMark) ([]byte, error) {
	if kinds != nil && len(kinds) != len(addrs) {
		return nil, fmt.Errorf("dtrace: trace has %d refs but %d kinds", len(addrs), len(kinds))
	}
	var buf bytes.Buffer
	buf.Grow(len(PackedMagic) + 2*len(addrs))
	w, err := NewPackedWriter(&buf)
	if err != nil {
		return nil, err
	}
	// Write the runs between tick marks, noting each mark's tick before
	// its first reference.
	mi := 0
	for i := 0; i < len(addrs); {
		for mi < len(marks) && marks[mi].Ref <= uint64(i) {
			w.NoteTick(marks[mi].Tick)
			mi++
		}
		j := len(addrs)
		if mi < len(marks) && marks[mi].Ref < uint64(j) {
			j = int(marks[mi].Ref)
		}
		var k []uint8
		if kinds != nil {
			k = kinds[i:j]
		}
		if err := w.WriteRefs(addrs[i:j], k); err != nil {
			return nil, err
		}
		i = j
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
