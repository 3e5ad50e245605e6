package m68k

import "sync"

// Translator annotation table. The 68000's 16-bit opcode space is small
// enough to decode once: buildOpTable walks all 65536 opcodes through the
// same decision tree as the legacy nested-switch interpreter (decode.go),
// which is the CPU's one executable semantics, and records per opcode what
// the superblock translator (block.go, spec.go) needs to know without
// executing anything: the pre-extracted size, EA-mode, EA-register and
// register fields, a family-specific field, whether the opcode may sit in a
// block (bflags), how many extension words it carries (extw) and which
// specialized form the spec engine builds for it (sfam). Nothing here runs:
// CPU.Step executes through the legacy switch, and so does the spec
// engine's generic adapter for any block op without a specialized form.
//
// The annotations are claims about the legacy interpreter, and
// TestDifferentialOpcodeSweep and FuzzDifferentialDispatch (diff_test.go)
// check them: a bSafe or bEnd opcode raises no exception, halt or stop, and
// a bSafe opcode advances PC by exactly 2 + 2·extw.

// opEntry is the compact pre-decoded form of one opcode.
type opEntry struct {
	size Size  // operand size, when the instruction has one
	mode uint8 // EA mode field (bits 3-5)
	reg  uint8 // EA register field (bits 0-2)
	rn   uint8 // data/address register or count field (bits 9-11)
	x    uint8 // family-specific: condition code, ALU op, quick value...

	// bflags classifies the opcode for superblock discovery; extw is the
	// statically known count of extension words, so the translator can find
	// the next instruction without a second decoder that could drift from
	// this table.
	bflags uint8
	extw   uint8

	// sfam names the specialization family (spec.go) for the spec engine's
	// per-block handler selection, so the specializer never re-derives the
	// decode tree. Zero (sfNone) means "no specialized form": the spec
	// engine runs the op through its generic adapter.
	sfam uint8
}

// bflags bits. A zero bflags means the opcode may raise an exception, touch
// SR system bits or otherwise needs the full Step path, so translation ends
// before it and execution falls back to CPU.Step.
const (
	bSafe uint8 = 1 << 0 // straight-line: no PC change, no exception possible
	bEnd  uint8 = 1 << 1 // control transfer: include as the block's final op
)

// ADD/SUB selectors stored in opEntry.x; the specializer reads them for
// ADDA/SUBA and ADDI/SUBI.
const (
	aluAdd uint8 = iota
	aluSub
)

// Shift encoding in opEntry.x: bit 0 = left, bits 1-2 = type
// (0=arithmetic 1=logical 2=rotate-extend 3=rotate), bit 3 = count in Dn.
const shiftCountInReg uint8 = 8

var (
	opTable     [0x10000]opEntry
	opTableOnce sync.Once
)

// eaExtWords returns the number of extension words an EA of the given
// (mode, reg) consumes at the given operand size. It must agree exactly
// with resolveEA's fetch behaviour (an absolute-long or long-immediate
// operand is one Long fetch, i.e. two words).
func eaExtWords(mode, reg int, size Size) uint8 {
	switch mode {
	case ModeDisp16, ModeIndex:
		return 1
	case ModeOther:
		switch reg {
		case RegAbsWord, RegPCDisp, RegPCIndex:
			return 1
		case RegAbsLong:
			return 2
		case RegImmediate:
			if size == Long {
				return 2
			}
			return 1
		}
	}
	return 0
}

// immExtWords is the immediate-operand prefix of the ALU-immediate forms.
func immExtWords(size Size) uint8 {
	if size == Long {
		return 2
	}
	return 1
}

// buildOpTable fills the annotation table; called once, when the first
// block engine is built (the table is immutable afterwards and shared by
// all engines).
func buildOpTable() {
	for op := 0; op < 0x10000; op++ {
		opTable[op] = buildEntry(uint16(op))
	}
}

// buildEntry decodes one opcode into its table entry. The decision tree
// follows dispatch() and the group handlers; every condition here is a
// pure function of the opcode bits. Line-A and line-F (0xA, 0xF) carry no
// annotation.
func buildEntry(op uint16) opEntry {
	e := opEntry{
		mode: uint8(op >> 3 & 7),
		reg:  uint8(op & 7),
		rn:   uint8(op >> 9 & 7),
	}
	mode := int(e.mode)
	reg := int(e.reg)

	switch op >> 12 {
	case 0x0:
		buildGroup0(op, &e, mode, reg)
	case 0x1:
		buildMove(op, &e, Byte)
	case 0x2:
		buildMove(op, &e, Long)
	case 0x3:
		buildMove(op, &e, Word)
	case 0x4:
		buildGroup4(op, &e, mode, reg)
	case 0x5:
		buildGroup5(op, &e, mode, reg)
	case 0x6:
		e.x = uint8(op >> 8 & 0xF)
		if e.x != 1 { // BSR has no specialized form
			e.sfam = sfBcc
		}
		e.bflags = bEnd
		if op&0x00FF == 0 {
			e.extw = 1 // 16-bit displacement form
		}
	case 0x7:
		if op&0x0100 == 0 {
			e.bflags = bSafe
			e.sfam = sfMOVEQ
		}
	case 0x8:
		buildGroup8C(op, &e, mode, reg, false)
	case 0x9:
		buildAddSub(op, &e, mode, reg, aluSub)
	case 0xB:
		buildGroupB(op, &e, mode, reg)
	case 0xC:
		buildGroup8C(op, &e, mode, reg, true)
	case 0xD:
		buildAddSub(op, &e, mode, reg, aluAdd)
	case 0xE:
		buildShift(op, &e, mode, reg)
	}
	return e
}

// buildGroup0 annotates the ALU-immediate forms. Dynamic and static bit
// ops and MOVEP stay unannotated, as do the to-CCR/to-SR forms, whose
// immediate EA fails the "dm" class.
func buildGroup0(op uint16, e *opEntry, mode, reg int) {
	if op&0x0100 != 0 {
		return // dynamic bit ops or MOVEP
	}
	sel := op >> 9 & 7
	if sel == 4 || sel == 7 {
		return // static bit ops, unassigned
	}
	size, ok := opSize(op >> 6 & 3)
	if !ok || !validEA(mode, reg, "dm") {
		return
	}
	e.size = size
	e.bflags = bSafe
	e.extw = immExtWords(size) + eaExtWords(mode, reg, size)
	switch sel {
	case 2: // SUBI
		e.x = aluSub
		e.sfam = sfImmArith
	case 3: // ADDI
		e.x = aluAdd
		e.sfam = sfImmArith
	case 6: // CMPI
		e.sfam = sfCMPI
	default: // ORI / ANDI / EORI: no specialized form
	}
}

func buildMove(op uint16, e *opEntry, size Size) {
	srcMode := int(e.mode)
	srcReg := int(e.reg)
	dstMode := int(op >> 6 & 7)
	e.size = size
	e.x = uint8(dstMode)
	if !validEA(srcMode, srcReg, "dampi") || (srcMode == ModeAddrReg && size == Byte) {
		return
	}
	if dstMode == ModeAddrReg {
		if size != Byte { // MOVEA.B is illegal
			e.bflags = bSafe
			e.extw = eaExtWords(srcMode, srcReg, size)
			e.sfam = sfMOVEA
		}
		return
	}
	if !validEA(dstMode, int(e.rn), "dm") {
		return
	}
	e.bflags = bSafe
	e.extw = eaExtWords(srcMode, srcReg, size) + eaExtWords(dstMode, int(e.rn), size)
	e.sfam = sfMoveToMem
	if dstMode == ModeDataReg {
		e.sfam = sfMoveToDn
	}
}

func buildShift(op uint16, e *opEntry, mode, reg int) {
	if op&0x00C0 == 0x00C0 { // memory form: <op> <ea> (word, by 1)
		if validEA(mode, reg, "m") {
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, Word)
		}
		return
	}
	e.size, _ = opSize(op >> 6 & 3) // size 3 is the memory form above
	e.x = uint8(op>>3&3)<<1 | uint8(op>>8&1)
	if op&0x0020 != 0 {
		e.x |= shiftCountInReg
	}
	e.bflags = bSafe
	e.sfam = sfShiftReg
}

// buildGroup4 lists only the group-4 forms the translator handles; every
// other encoding (traps, RTE/RTR, the SR/CCR/USP moves, RESET/STOP, MOVEM,
// CHK, NBCD, TAS, NEGX/NEG/NOT) matches no case and stays unannotated. No
// listed pattern covers an unlisted instruction except TST's, whose size-3
// encodings (TAS, ILLEGAL) fail opSize.
func buildGroup4(op uint16, e *opEntry, mode, reg int) {
	switch {
	case op&0xF1C0 == 0x41C0: // LEA
		if controlEA(mode, reg) {
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, Long)
			e.sfam = sfLEA
		}
	case op&0xFFF8 == 0x4E50: // LINK
		e.bflags = bSafe
		e.extw = 1
	case op&0xFFF8 == 0x4E58: // UNLK
		e.bflags = bSafe
	case op == 0x4E71: // NOP
		e.bflags = bSafe
	case op == 0x4E75: // RTS
		e.bflags = bEnd
		e.sfam = sfRTS
	case op&0xFFC0 == 0x4E80: // JSR
		if controlEA(mode, reg) {
			e.bflags = bEnd
			e.extw = eaExtWords(mode, reg, Long)
			e.sfam = sfJSR
		}
	case op&0xFFC0 == 0x4EC0: // JMP
		if controlEA(mode, reg) {
			e.bflags = bEnd
			e.extw = eaExtWords(mode, reg, Long)
			e.sfam = sfJMP
		}
	case op&0xFFF8 == 0x4840: // SWAP
		e.bflags = bSafe
		e.sfam = sfSWAP
	case op&0xFFC0 == 0x4840: // PEA
		if controlEA(mode, reg) {
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, Long)
			e.sfam = sfPEA
		}
	case op&0xFFB8 == 0x4880 && mode == ModeDataReg: // EXT
		e.bflags = bSafe
	case op&0xFF00 == 0x4A00: // TST
		size, ok := opSize(op >> 6 & 3)
		if ok && validEA(mode, reg, "dm") {
			e.size = size
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, size)
			e.sfam = sfTST
		}
	case op&0xFF00 == 0x4200: // CLR
		size, ok := opSize(op >> 6 & 3)
		if ok && validEA(mode, reg, "dm") {
			e.size = size
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, size)
			e.sfam = sfCLR
		}
	}
}

func buildGroup5(op uint16, e *opEntry, mode, reg int) {
	if op&0x00C0 == 0x00C0 { // Scc / DBcc
		e.x = uint8(op >> 8 & 0xF)
		if mode == ModeAddrReg {
			e.bflags = bEnd
			e.extw = 1
			e.sfam = sfDBcc
			return
		}
		if validEA(mode, reg, "dm") {
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, Byte)
		}
		return
	}
	size, _ := opSize(op >> 6 & 3) // size 3 is Scc/DBcc above
	e.size = size
	q := uint8(op >> 9 & 7)
	if q == 0 {
		q = 8
	}
	e.x = q
	isSub := op&0x0100 != 0
	if mode == ModeAddrReg {
		if size == Byte {
			return
		}
		if !isSub { // SUBQ to An has no specialized form
			e.sfam = sfADDQA
		}
		e.bflags = bSafe
		return
	}
	if !validEA(mode, reg, "dm") {
		return
	}
	e.sfam = sfADDQ
	if isSub {
		e.sfam = sfSUBQ
	}
	e.bflags = bSafe
	e.extw = eaExtWords(mode, reg, size)
}

// buildGroup8C covers groups 0x8 (OR/DIV/SBCD) and 0xC (AND/MUL/ABCD/EXG).
func buildGroup8C(op uint16, e *opEntry, mode, reg int, isC bool) {
	switch {
	case op&0x00C0 == 0x00C0, op&0x01F0 == 0x0100:
		// DIV/MUL and SBCD/ABCD: no annotation.
	case isC && (op&0x01F8 == 0x0140 || op&0x01F8 == 0x0148 || op&0x01F8 == 0x0188):
		e.bflags = bSafe // EXG Dx,Dy / Ax,Ay / Dx,Ay
	default: // OR / AND
		buildDnEA(op, e, mode, reg)
	}
}

// buildAddSub covers groups 0x9 (SUB/SUBA/SUBX) and 0xD (ADD/ADDA/ADDX).
func buildAddSub(op uint16, e *opEntry, mode, reg int, alu uint8) {
	e.x = alu
	switch {
	case op&0x00C0 == 0x00C0: // ADDA / SUBA
		if validEA(mode, reg, "dampi") {
			e.size = Word
			if op&0x0100 != 0 {
				e.size = Long
			}
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, e.size)
			e.sfam = sfAddrOp
		}
	case op&0x0130 == 0x0100: // ADDX / SUBX: no annotation
	default:
		buildDnEA(op, e, mode, reg)
	}
}

// buildDnEA pre-validates the shared OR/AND/ADD/SUB frame (execDnEA).
func buildDnEA(op uint16, e *opEntry, mode, reg int) {
	size, ok := opSize(op >> 6 & 3)
	if !ok {
		return
	}
	e.size = size
	if op&0x0100 != 0 { // <ea> destination
		if validEA(mode, reg, "m") {
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, size)
		}
		return
	}
	class := "dmpi"
	if mode == ModeAddrReg && size != Byte {
		class = "dampi"
	}
	if validEA(mode, reg, class) {
		e.bflags = bSafe
		e.extw = eaExtWords(mode, reg, size)
	}
}

func buildGroupB(op uint16, e *opEntry, mode, reg int) {
	switch {
	case op&0x00C0 == 0x00C0: // CMPA
		if validEA(mode, reg, "dampi") {
			e.size = Word
			if op&0x0100 != 0 {
				e.size = Long
			}
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, e.size)
		}
	case op&0x0100 == 0: // CMP
		size, _ := opSize(op >> 6 & 3)
		class := "dmpi"
		if mode == ModeAddrReg && size != Byte {
			class = "dampi"
		}
		if validEA(mode, reg, class) {
			e.size = size
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, size)
		}
	case op&0x0038 == 0x0008: // CMPM
		e.size, _ = opSize(op >> 6 & 3)
		e.bflags = bSafe
	default: // EOR
		size, ok := opSize(op >> 6 & 3)
		if ok && validEA(mode, reg, "dm") {
			e.size = size
			e.bflags = bSafe
			e.extw = eaExtWords(mode, reg, size)
		}
	}
}
