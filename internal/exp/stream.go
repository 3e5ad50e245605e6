// Streaming reader for the Dinero din interchange format, implementing
// the sweep engine's kinded Source interface so multi-hundred-million-
// reference traces are fed to the simulators chunk by chunk instead of
// being materialized as one []uint32. The packed .ptrace artifact has its
// own streaming reader, dtrace.PackedSource.
package exp

import (
	"bufio"
	"fmt"
	"io"

	"palmsim/internal/dtrace"
	"palmsim/internal/m68k"
	"palmsim/internal/obs"
	"palmsim/internal/simerr"
	"palmsim/internal/sweep"
)

// Kind-carrying sources must satisfy the sweep engine's kinded face.
var (
	_ sweep.KindedSource = (*DineroSource)(nil)
	_ sweep.KindedSource = (*dtrace.PackedSource)(nil)
)

// DineroSource streams a din-format trace ("<label> <hexaddr>" lines, as
// written by MarshalDinero). NextChunk validates but discards the
// labels; NextChunkKinded maps them to m68k.Access kinds (din 0 = data
// read, 1 = data write, 2 = instruction fetch), which write-policy
// sweeps require.
type DineroSource struct {
	r    *bufio.Reader
	line int
	done bool

	// ObsRefs, when non-nil, counts parsed references per chunk.
	ObsRefs *obs.Counter
}

// NewDineroSource prepares a streaming din parse.
func NewDineroSource(r io.Reader) *DineroSource {
	return &DineroSource{r: bufio.NewReaderSize(r, 1<<16)}
}

// NextChunk parses up to len(buf) din lines into addresses.
func (d *DineroSource) NextChunk(buf []uint32) (int, error) {
	return d.next(buf, nil)
}

// NextChunkKinded parses up to min(len(buf), len(kinds)) din lines into
// (address, kind) pairs. Both entry points advance the same stream
// position.
func (d *DineroSource) NextChunkKinded(buf []uint32, kinds []uint8) (int, error) {
	if len(kinds) < len(buf) {
		buf = buf[:len(kinds)]
	}
	return d.next(buf, kinds)
}

func (d *DineroSource) next(buf []uint32, kinds []uint8) (int, error) {
	n := 0
	for n < len(buf) && !d.done {
		raw, err := d.r.ReadSlice('\n')
		if err == io.EOF {
			d.done = true
			if len(raw) == 0 {
				break
			}
		} else if err != nil {
			return 0, simerr.CorruptTrace("exp: read", int64(d.line), fmt.Errorf("din line %d: %w", d.line+1, err))
		}
		d.line++
		addr, kind, perr := parseDinLine(raw, d.line)
		if perr != nil {
			return 0, simerr.CorruptTrace("exp: read", int64(d.line-1), perr)
		}
		buf[n] = addr
		if kinds != nil {
			kinds[n] = kind
		}
		n++
	}
	d.ObsRefs.Add(uint64(n))
	return n, nil
}

// parseDinLine decodes one "<label> <hexaddr>" line (trailing newline
// optional). Leading zeros are legal; a digit that would shift a nonzero
// nibble out of 32 bits is not.
func parseDinLine(raw []byte, line int) (uint32, uint8, error) {
	if len(raw) > 0 && raw[len(raw)-1] == '\n' {
		raw = raw[:len(raw)-1]
	}
	if len(raw) < 3 || raw[1] != ' ' {
		return 0, 0, fmt.Errorf("din line %d malformed", line)
	}
	var kind uint8
	switch raw[0] {
	case '0':
		kind = uint8(m68k.Read)
	case '1':
		kind = uint8(m68k.Write)
	case '2':
		kind = uint8(m68k.Fetch)
	default:
		return 0, 0, fmt.Errorf("din line %d has label %q", line, raw[0])
	}
	var addr uint32
	for _, c := range raw[2:] {
		var nib uint32
		switch {
		case c >= '0' && c <= '9':
			nib = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			nib = uint32(c - 'a' + 10)
		case c >= 'A' && c <= 'F':
			nib = uint32(c - 'A' + 10)
		default:
			return 0, 0, fmt.Errorf("din line %d has bad address", line)
		}
		if addr>>28 != 0 {
			return 0, 0, fmt.Errorf("din line %d: address %q overflows 32 bits", line, raw[2:])
		}
		addr = addr<<4 | nib
	}
	return addr, kind, nil
}
