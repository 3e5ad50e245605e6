package asm

import (
	"strings"

	"palmsim/internal/m68k"
)

// instruction assembles one mnemonic + operand field.
func (a *assembler) instruction(mnemonic, field string) error {
	base, size, sized, short := splitSuffix(mnemonic)

	// Directives first.
	switch base {
	case "dc":
		return a.dirDC(size, sized, field)
	case "ds":
		return a.dirDS(size, sized, field)
	case "org":
		return a.dirOrg(field)
	case "even":
		if a.pc%2 != 0 {
			a.emit8(0)
		}
		return nil
	case "align":
		n, err := a.eval(field)
		if err != nil {
			return err
		}
		if n == 0 {
			return a.errf("align 0")
		}
		for a.pc%n != 0 {
			a.emit8(0)
		}
		return nil
	case "equ":
		return a.errf("equ requires a label")
	}

	raw := splitOperands(field)
	ops := make([]*opnd, len(raw))
	for i, r := range raw {
		o, err := a.parseOperand(r)
		if err != nil {
			return err
		}
		ops[i] = o
	}

	if cc, ok := branchCond(base); ok {
		return a.encBranch(cc, short, ops)
	}
	if cc, ok := dbCond(base); ok {
		return a.encDBcc(cc, ops)
	}

	switch base {
	case "move":
		return a.encMove(size, sized, ops)
	case "movea":
		return a.encMove(size, sized, ops)
	case "moveq":
		return a.encMoveq(ops)
	case "movem":
		return a.encMovem(size, sized, ops)
	case "lea":
		return a.encLea(ops)
	case "pea":
		return a.encPea(ops)
	case "clr":
		return a.encSingle(0x4200, size, ops)
	case "not":
		return a.encSingle(0x4600, size, ops)
	case "tst":
		return a.encSingle(0x4A00, size, ops)
	case "ext":
		return a.encExt(size, sized, ops)
	case "swap":
		return a.encSwap(ops)
	case "add", "addi", "addq", "adda":
		return a.encAddSub(base, size, ops, true)
	case "sub", "subi", "subq", "suba":
		return a.encAddSub(base, size, ops, false)
	case "cmp", "cmpi", "cmpa":
		return a.encCmp(base, size, ops)
	case "and", "andi":
		return a.encLogic(base, 0xC000, 0x0200, size, ops)
	case "or", "ori":
		return a.encLogic(base, 0x8000, 0x0000, size, ops)
	case "mulu":
		return a.encMulDiv(0xC0C0, ops)
	case "divu":
		return a.encMulDiv(0x80C0, ops)
	case "btst":
		return a.encBitOp(0, ops)
	case "lsl":
		return a.encShift(1, true, size, ops)
	case "lsr":
		return a.encShift(1, false, size, ops)
	case "jmp":
		return a.encJmpJsr(0x4EC0, ops)
	case "jsr":
		return a.encJmpJsr(0x4E80, ops)
	case "rts":
		a.emit16(0x4E75)
		return nil
	case "rte":
		a.emit16(0x4E73)
		return nil
	case "stop":
		return a.encStop(ops)
	}
	return a.errf("unknown mnemonic %q", mnemonic)
}

// splitSuffix strips the .b/.w/.l/.s size suffix off a mnemonic.
func splitSuffix(m string) (base string, size m68k.Size, sized, short bool) {
	size = m68k.Word
	if i := strings.LastIndexByte(m, '.'); i > 0 {
		switch m[i+1:] {
		case "b":
			return m[:i], m68k.Byte, true, false
		case "w":
			return m[:i], m68k.Word, true, false
		case "l":
			return m[:i], m68k.Long, true, false
		case "s":
			return m[:i], m68k.Word, false, true
		}
	}
	return m, size, false, false
}

var condCodes = map[string]int{
	"t": 0x0, "f": 0x1, "hi": 0x2, "ls": 0x3,
	"cc": 0x4, "hs": 0x4, "cs": 0x5, "lo": 0x5,
	"ne": 0x6, "eq": 0x7, "vc": 0x8, "vs": 0x9,
	"pl": 0xA, "mi": 0xB, "ge": 0xC, "lt": 0xD,
	"gt": 0xE, "le": 0xF,
}

func branchCond(base string) (int, bool) {
	switch base {
	case "bra":
		return 0x0, true
	case "bsr":
		return 0x1, true
	}
	if strings.HasPrefix(base, "b") {
		if cc, ok := condCodes[base[1:]]; ok && cc > 1 {
			return cc, true
		}
	}
	return 0, false
}

func dbCond(base string) (int, bool) {
	if base == "dbra" {
		return 0x1, true // DBF
	}
	if strings.HasPrefix(base, "db") {
		if cc, ok := condCodes[base[2:]]; ok {
			return cc, true
		}
	}
	return 0, false
}

func sizeBits(size m68k.Size) uint16 {
	switch size {
	case m68k.Byte:
		return 0
	case m68k.Word:
		return 1
	default:
		return 2
	}
}

// emitExt writes extension words.
func (a *assembler) emitExt(ext []uint16) {
	for _, w := range ext {
		a.emit16(w)
	}
}

func (a *assembler) need(ops []*opnd, n int) error {
	if len(ops) != n {
		return a.errf("expected %d operands, got %d", n, len(ops))
	}
	return nil
}

func (a *assembler) encMove(size m68k.Size, sized bool, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]

	// System-register forms.
	switch {
	case dst.kind == opSR && src.kind != opUSP:
		ea, ext, err := a.encodeEA(src, m68k.Word, 2)
		if err != nil {
			return err
		}
		if !classOK(src, "dmpi") {
			return a.errf("bad source for move to sr: %q", src.src)
		}
		a.emit16(0x46C0 | uint16(ea))
		a.emitExt(ext)
		return nil
	case dst.kind == opCCR:
		ea, ext, err := a.encodeEA(src, m68k.Word, 2)
		if err != nil {
			return err
		}
		a.emit16(0x44C0 | uint16(ea))
		a.emitExt(ext)
		return nil
	case src.kind == opSR:
		ea, ext, err := a.encodeEA(dst, m68k.Word, 2)
		if err != nil {
			return err
		}
		a.emit16(0x40C0 | uint16(ea))
		a.emitExt(ext)
		return nil
	case dst.kind == opUSP:
		if src.kind != opAddrReg {
			return a.errf("move to usp needs an address register")
		}
		a.emit16(0x4E60 | uint16(src.reg))
		return nil
	case src.kind == opUSP:
		if dst.kind != opAddrReg {
			return a.errf("move from usp needs an address register")
		}
		a.emit16(0x4E68 | uint16(dst.reg))
		return nil
	}

	var top uint16
	switch size {
	case m68k.Byte:
		top = 0x1000
	case m68k.Word:
		top = 0x3000
	default:
		top = 0x2000
	}
	if !classOK(src, "dampi") || (src.kind == opAddrReg && size == m68k.Byte) {
		return a.errf("bad move source %q", src.src)
	}
	srcEA, srcExt, err := a.encodeEA(src, size, 2)
	if err != nil {
		return err
	}
	if dst.kind == opAddrReg { // MOVEA
		if size == m68k.Byte {
			return a.errf("movea.b is invalid")
		}
		a.emit16(top | uint16(dst.reg)<<9 | uint16(m68k.ModeAddrReg)<<6 | uint16(srcEA))
		a.emitExt(srcExt)
		return nil
	}
	if !classOK(dst, "dm") {
		return a.errf("bad move destination %q", dst.src)
	}
	dstEA, dstExt, err := a.encodeEA(dst, size, 2+uint32(2*len(srcExt)))
	if err != nil {
		return err
	}
	dstMode := uint16(dstEA >> 3)
	dstReg := uint16(dstEA & 7)
	a.emit16(top | dstReg<<9 | dstMode<<6 | uint16(srcEA))
	a.emitExt(srcExt)
	a.emitExt(dstExt)
	return nil
}

func (a *assembler) encMoveq(ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	if ops[0].kind != opImm || ops[1].kind != opDataReg {
		return a.errf("moveq needs #imm,dn")
	}
	v, err := a.eval(ops[0].expr)
	if err != nil {
		return err
	}
	if a.pass == 2 && int32(v) != int32(int8(v)) {
		return a.errf("moveq immediate %d out of range", int32(v))
	}
	a.emit16(0x7000 | uint16(ops[1].reg)<<9 | uint16(v&0xFF))
	return nil
}

func (a *assembler) encMovem(size m68k.Size, sized bool, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	if size == m68k.Byte {
		return a.errf("movem.b is invalid")
	}
	if !sized {
		size = m68k.Word
	}
	szBit := uint16(0)
	if size == m68k.Long {
		szBit = 0x0040
	}
	// Accept single registers as 1-element lists.
	asList := func(o *opnd) (uint16, bool) {
		switch o.kind {
		case opRegList:
			return o.regMask, true
		case opDataReg:
			return 1 << o.reg, true
		case opAddrReg:
			return 1 << (o.reg + 8), true
		}
		return 0, false
	}
	if mask, ok := asList(ops[0]); ok { // regs -> memory
		dst := ops[1]
		if dst.kind == opPreDec {
			a.emit16(0x4880 | szBit | uint16(m68k.ModePreDec)<<3 | uint16(dst.reg))
			a.emit16(bitReverse16(mask))
			return nil
		}
		if !controlOK(dst) || dst.kind == opPCDisp || dst.kind == opPCIndex {
			return a.errf("bad movem destination %q", dst.src)
		}
		ea, ext, err := a.encodeEA(dst, size, 4)
		if err != nil {
			return err
		}
		a.emit16(0x4880 | szBit | uint16(ea))
		a.emit16(mask)
		a.emitExt(ext)
		return nil
	}
	mask, ok := asList(ops[1])
	if !ok {
		return a.errf("movem needs a register list")
	}
	src := ops[0]
	if src.kind != opPostInc && !controlOK(src) {
		return a.errf("bad movem source %q", src.src)
	}
	ea, ext, err := a.encodeEA(src, size, 4)
	if err != nil {
		return err
	}
	a.emit16(0x4C80 | szBit | uint16(ea))
	a.emit16(mask)
	a.emitExt(ext)
	return nil
}

func bitReverse16(v uint16) uint16 {
	var r uint16
	for i := 0; i < 16; i++ {
		if v&(1<<i) != 0 {
			r |= 1 << (15 - i)
		}
	}
	return r
}

func (a *assembler) encLea(ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	if !controlOK(ops[0]) || ops[1].kind != opAddrReg {
		return a.errf("lea needs a control EA and an address register")
	}
	ea, ext, err := a.encodeEA(ops[0], m68k.Long, 2)
	if err != nil {
		return err
	}
	a.emit16(0x41C0 | uint16(ops[1].reg)<<9 | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encPea(ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if !controlOK(ops[0]) {
		return a.errf("pea needs a control EA")
	}
	ea, ext, err := a.encodeEA(ops[0], m68k.Long, 2)
	if err != nil {
		return err
	}
	a.emit16(0x4840 | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encSingle(baseOp uint16, size m68k.Size, ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if !classOK(ops[0], "dm") {
		return a.errf("bad operand %q", ops[0].src)
	}
	ea, ext, err := a.encodeEA(ops[0], size, 2)
	if err != nil {
		return err
	}
	a.emit16(baseOp | sizeBits(size)<<6 | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encExt(size m68k.Size, sized bool, ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if ops[0].kind != opDataReg {
		return a.errf("ext needs a data register")
	}
	op := uint16(0x4880)
	if sized && size == m68k.Long {
		op = 0x48C0
	}
	a.emit16(op | uint16(ops[0].reg))
	return nil
}

func (a *assembler) encSwap(ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if ops[0].kind != opDataReg {
		return a.errf("swap needs a data register")
	}
	a.emit16(0x4840 | uint16(ops[0].reg))
	return nil
}

// encAddSub covers add/sub and their addi/addq/adda/subi/subq/suba forms.
func (a *assembler) encAddSub(base string, size m68k.Size, ops []*opnd, isAdd bool) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]

	var opDn, opAdda, opImmBase, opQ uint16
	if isAdd {
		opDn, opAdda, opImmBase, opQ = 0xD000, 0xD0C0, 0x0600, 0x5000
	} else {
		opDn, opAdda, opImmBase, opQ = 0x9000, 0x90C0, 0x0400, 0x5100
	}

	// Quick form.
	if base == "addq" || base == "subq" {
		if src.kind != opImm {
			return a.errf("%s needs an immediate source", base)
		}
		q, err := a.eval(src.expr)
		if err != nil {
			return err
		}
		if a.pass == 2 && (q < 1 || q > 8) {
			return a.errf("%s immediate %d out of range 1..8", base, q)
		}
		if !classOK(dst, "dam") {
			return a.errf("bad %s destination %q", base, dst.src)
		}
		ea, ext, err := a.encodeEA(dst, size, 2)
		if err != nil {
			return err
		}
		a.emit16(opQ | uint16(q&7)<<9 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(ext)
		return nil
	}

	// Address-register destination: ADDA/SUBA.
	if dst.kind == opAddrReg {
		if size == m68k.Byte {
			return a.errf("%sa.b is invalid", base[:3])
		}
		op := opAdda
		if size == m68k.Long {
			op |= 0x0100
		}
		ea, ext, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		a.emit16(op | uint16(dst.reg)<<9 | uint16(ea))
		a.emitExt(ext)
		return nil
	}

	// Immediate source: ADDI/SUBI.
	if src.kind == opImm {
		if !classOK(dst, "dm") {
			return a.errf("bad destination %q", dst.src)
		}
		immLen := uint32(2)
		if size == m68k.Long {
			immLen = 4
		}
		_, immExt, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		ea, ext, err := a.encodeEA(dst, size, 2+immLen)
		if err != nil {
			return err
		}
		a.emit16(opImmBase | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(immExt)
		a.emitExt(ext)
		return nil
	}

	// <ea>,Dn
	if dst.kind == opDataReg {
		class := "dmpi"
		if size != m68k.Byte {
			class = "dampi"
		}
		if !classOK(src, class) {
			return a.errf("bad source %q", src.src)
		}
		ea, ext, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		a.emit16(opDn | uint16(dst.reg)<<9 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(ext)
		return nil
	}

	// Dn,<ea>
	if src.kind == opDataReg && classOK(dst, "m") {
		ea, ext, err := a.encodeEA(dst, size, 2)
		if err != nil {
			return err
		}
		a.emit16(opDn | 0x0100 | uint16(src.reg)<<9 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(ext)
		return nil
	}
	return a.errf("unsupported %s form: %q,%q", base, src.src, dst.src)
}

func (a *assembler) encCmp(base string, size m68k.Size, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]
	if dst.kind == opAddrReg {
		if size == m68k.Byte {
			return a.errf("cmpa.b is invalid")
		}
		op := uint16(0xB0C0)
		if size == m68k.Long {
			op = 0xB1C0
		}
		ea, ext, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		a.emit16(op | uint16(dst.reg)<<9 | uint16(ea))
		a.emitExt(ext)
		return nil
	}
	if src.kind == opImm { // CMPI
		if !classOK(dst, "dm") {
			return a.errf("bad cmpi destination %q", dst.src)
		}
		immLen := uint32(2)
		if size == m68k.Long {
			immLen = 4
		}
		_, immExt, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		ea, ext, err := a.encodeEA(dst, size, 2+immLen)
		if err != nil {
			return err
		}
		a.emit16(0x0C00 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(immExt)
		a.emitExt(ext)
		return nil
	}
	if dst.kind != opDataReg {
		return a.errf("cmp destination must be a data register")
	}
	class := "dmpi"
	if size != m68k.Byte {
		class = "dampi"
	}
	if !classOK(src, class) {
		return a.errf("bad cmp source %q", src.src)
	}
	ea, ext, err := a.encodeEA(src, size, 2)
	if err != nil {
		return err
	}
	a.emit16(0xB000 | uint16(dst.reg)<<9 | sizeBits(size)<<6 | uint16(ea))
	a.emitExt(ext)
	return nil
}

// encLogic covers and/or with their immediate (incl. CCR/SR) forms.
func (a *assembler) encLogic(base string, opDn, opImmBase uint16, size m68k.Size, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]

	if src.kind == opImm {
		switch dst.kind {
		case opCCR:
			v, err := a.eval(src.expr)
			if err != nil {
				return err
			}
			a.emit16(opImmBase | 0x003C)
			a.emit16(uint16(v & 0xFF))
			return nil
		case opSR:
			v, err := a.eval(src.expr)
			if err != nil {
				return err
			}
			a.emit16(opImmBase | 0x007C)
			a.emit16(uint16(v))
			return nil
		}
		if !classOK(dst, "dm") {
			return a.errf("bad %si destination %q", base, dst.src)
		}
		immLen := uint32(2)
		if size == m68k.Long {
			immLen = 4
		}
		_, immExt, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		ea, ext, err := a.encodeEA(dst, size, 2+immLen)
		if err != nil {
			return err
		}
		a.emit16(opImmBase | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(immExt)
		a.emitExt(ext)
		return nil
	}

	if dst.kind == opDataReg {
		if !classOK(src, "dmpi") {
			return a.errf("bad %s source %q", base, src.src)
		}
		ea, ext, err := a.encodeEA(src, size, 2)
		if err != nil {
			return err
		}
		a.emit16(opDn | uint16(dst.reg)<<9 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(ext)
		return nil
	}
	if src.kind == opDataReg && classOK(dst, "m") {
		ea, ext, err := a.encodeEA(dst, size, 2)
		if err != nil {
			return err
		}
		a.emit16(opDn | 0x0100 | uint16(src.reg)<<9 | sizeBits(size)<<6 | uint16(ea))
		a.emitExt(ext)
		return nil
	}
	return a.errf("unsupported %s form", base)
}

func (a *assembler) encMulDiv(op uint16, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	if ops[1].kind != opDataReg || !classOK(ops[0], "dmpi") {
		return a.errf("mul/div need <ea>,dn")
	}
	ea, ext, err := a.encodeEA(ops[0], m68k.Word, 2)
	if err != nil {
		return err
	}
	a.emit16(op | uint16(ops[1].reg)<<9 | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encBitOp(op int, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]
	class := "dm"
	if op == 0 {
		class = "dmp"
	}
	if !classOK(dst, class) {
		return a.errf("bad bit-op destination %q", dst.src)
	}
	size := m68k.Byte
	if dst.kind == opDataReg {
		size = m68k.Long
	}
	if src.kind == opImm { // static form
		v, err := a.eval(src.expr)
		if err != nil {
			return err
		}
		ea, ext, err := a.encodeEA(dst, size, 4)
		if err != nil {
			return err
		}
		a.emit16(0x0800 | uint16(op)<<6 | uint16(ea))
		a.emit16(uint16(v))
		a.emitExt(ext)
		return nil
	}
	if src.kind != opDataReg {
		return a.errf("bit number must be immediate or a data register")
	}
	ea, ext, err := a.encodeEA(dst, size, 2)
	if err != nil {
		return err
	}
	a.emit16(0x0100 | uint16(src.reg)<<9 | uint16(op)<<6 | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encShift(typ int, left bool, size m68k.Size, ops []*opnd) error {
	dir := uint16(0)
	if left {
		dir = 0x0100
	}
	if len(ops) == 1 { // memory form, shift by one
		if !classOK(ops[0], "m") {
			return a.errf("memory shift needs a memory EA")
		}
		ea, ext, err := a.encodeEA(ops[0], m68k.Word, 2)
		if err != nil {
			return err
		}
		a.emit16(0xE0C0 | uint16(typ)<<9 | dir | uint16(ea))
		a.emitExt(ext)
		return nil
	}
	if err := a.need(ops, 2); err != nil {
		return err
	}
	src, dst := ops[0], ops[1]
	if dst.kind != opDataReg {
		return a.errf("register shift destination must be a data register")
	}
	if src.kind == opImm {
		v, err := a.eval(src.expr)
		if err != nil {
			return err
		}
		if a.pass == 2 && (v < 1 || v > 8) {
			return a.errf("shift count %d out of range 1..8", v)
		}
		a.emit16(0xE000 | uint16(v&7)<<9 | dir | sizeBits(size)<<6 | uint16(typ)<<3 | uint16(dst.reg))
		return nil
	}
	if src.kind != opDataReg {
		return a.errf("shift count must be immediate or a data register")
	}
	a.emit16(0xE020 | uint16(src.reg)<<9 | dir | sizeBits(size)<<6 | uint16(typ)<<3 | uint16(dst.reg))
	return nil
}

func (a *assembler) encBranch(cc int, short bool, ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if ops[0].kind != opAbs {
		return a.errf("branch target must be an address expression")
	}
	target, err := a.eval(ops[0].expr)
	if err != nil {
		return err
	}
	disp := target - (a.pc + 2)
	if short {
		if a.pass == 2 && (int32(disp) != int32(int8(disp)) || disp == 0) {
			return a.errf("short branch displacement %d out of range", int32(disp))
		}
		a.emit16(uint16(0x6000) | uint16(cc)<<8 | uint16(disp&0xFF))
		return nil
	}
	if a.pass == 2 && int32(disp) != int32(int16(disp)) {
		return a.errf("branch displacement %d out of range", int32(disp))
	}
	a.emit16(uint16(0x6000) | uint16(cc)<<8)
	a.emit16(uint16(disp))
	return nil
}

func (a *assembler) encDBcc(cc int, ops []*opnd) error {
	if err := a.need(ops, 2); err != nil {
		return err
	}
	if ops[0].kind != opDataReg || ops[1].kind != opAbs {
		return a.errf("dbcc needs dn,label")
	}
	target, err := a.eval(ops[1].expr)
	if err != nil {
		return err
	}
	disp := target - (a.pc + 2)
	if a.pass == 2 && int32(disp) != int32(int16(disp)) {
		return a.errf("dbcc displacement out of range")
	}
	a.emit16(0x50C8 | uint16(cc)<<8 | uint16(ops[0].reg))
	a.emit16(uint16(disp))
	return nil
}

func (a *assembler) encJmpJsr(op uint16, ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if !controlOK(ops[0]) {
		return a.errf("jmp/jsr need a control EA")
	}
	ea, ext, err := a.encodeEA(ops[0], m68k.Long, 2)
	if err != nil {
		return err
	}
	a.emit16(op | uint16(ea))
	a.emitExt(ext)
	return nil
}

func (a *assembler) encStop(ops []*opnd) error {
	if err := a.need(ops, 1); err != nil {
		return err
	}
	if ops[0].kind != opImm {
		return a.errf("stop needs #sr")
	}
	v, err := a.eval(ops[0].expr)
	if err != nil {
		return err
	}
	a.emit16(0x4E72)
	a.emit16(uint16(v))
	return nil
}

// dirDC implements dc.b / dc.w / dc.l with numbers and strings.
func (a *assembler) dirDC(size m68k.Size, sized bool, field string) error {
	if !sized {
		size = m68k.Word
	}
	for _, item := range splitOperands(field) {
		if len(item) >= 2 && item[0] == '"' && item[len(item)-1] == '"' {
			if size != m68k.Byte {
				return a.errf("string literals require dc.b")
			}
			for i := 1; i < len(item)-1; i++ {
				a.emit8(item[i])
			}
			continue
		}
		v, err := a.eval(item)
		if err != nil {
			return err
		}
		switch size {
		case m68k.Byte:
			a.emit8(byte(v))
		case m68k.Word:
			a.emit16(uint16(v))
		default:
			a.emit32(v)
		}
	}
	return nil
}

func (a *assembler) dirDS(size m68k.Size, sized bool, field string) error {
	if !sized {
		size = m68k.Word
	}
	n, err := a.eval(field)
	if err != nil {
		return err
	}
	for i := uint32(0); i < n*uint32(size); i++ {
		a.emit8(0)
	}
	return nil
}

func (a *assembler) dirOrg(field string) error {
	v, err := a.eval(field)
	if err != nil {
		return err
	}
	if v < a.pc {
		return a.errf("org %#x moves backwards (pc=%#x)", v, a.pc)
	}
	for a.pc < v {
		a.emit8(0)
	}
	return nil
}
