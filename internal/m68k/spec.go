// Per-block handler specialization for the superblock engine ("spec"
// dispatch). The superblock cache (block.go) removes the dispatch costs;
// the rest of the time the interpreter would spend sits in generic EA
// resolution (resolveEA's mode switch and a windowed fetch16 per extension
// word), the operand struct threaded through resolveEA/loadOp/storeOp,
// per-op eaTiming lookups, and flag helper calls. This file moves that
// work to translation time.
//
// The specializer decodes each whitelisted instruction's operands once —
// extension words are read directly from the region bytes, which the
// invalidation machinery already guarantees cannot change under a cached
// block — and emits a specOp: a specialized step function plus
// pre-resolved operands (displacements folded, absolute and PC-relative
// addresses final, immediates pre-masked, post-increment steps with the
// A7 byte quirk baked in, branch targets computed) and a precomputed
// fixed cycle charge (base cycles + size extras + the eaTiming table
// contribution).
//
// Correctness contract, same as block.go: bit-identical architectural
// state AND bus streams. Every extension-word fetch the interpreter would
// perform is replayed via CPU.fetchRef at the same program point, in the
// same order relative to data accesses and with the same size; data
// accesses go through CPU.read/write, so fastMem (the bus, outside RAM and
// flash) counts and traces them as it does the interpreter's; flag
// updates either call the exact shared helpers
// (addFlags/subFlags/cmpFlags/shiftValue) or fuse the setNZ pattern with
// precomputed mask/msb constants. Anything without a
// specialized form — or using an index addressing mode, whose extension
// word names a runtime register — executes through a generic adapter that
// runs the legacy interpreter's dispatch with PC positioned exactly as
// CPU.Step would (past the opcode word), so coverage is never lost.
//
// Which forms are specialized is measured, not guessed. A form keeps a
// handler only if, on some benchmark workload (case-study: the four
// Table 1 sessions; trace-capture: the two gremlin storms), collect or
// replay executes it for at least 1 in 10,000 spec-engine instructions;
// every other form runs through sGeneric. SWAP is the closest form that
// stays (0.014% of case-study's collect). Adding a form back takes a
// traffic count that clears the same bar.
package m68k

// Specialization families (opEntry.sfam), tagged in table.go beside the
// other annotations. sfNone means "no specialized form".
const (
	sfNone uint8 = iota
	sfMOVEQ
	sfMoveToDn
	sfMoveToMem
	sfMOVEA
	sfAddrOp
	sfADDQ
	sfSUBQ
	sfADDQA
	sfCMPI
	sfImmArith
	sfTST
	sfCLR
	sfLEA
	sfPEA
	sfBcc
	sfDBcc
	sfJMP
	sfJSR
	sfRTS
	sfShiftReg
	sfSWAP
)

// specEA kinds: where a pre-resolved operand lives. The index modes
// (d8(An,Xn) and d8(PC,Xn)) have no kind — their extension word names a
// register read at run time, so instructions using them stay generic.
const (
	seDn   uint8 = iota // data register direct
	seAn                // address register direct
	seInd               // (An)
	sePost              // (An)+  — step pre-computed, A7 byte quirk baked in
	sePre               // -(An)
	seDisp              // d16(An) — val = sign-extended displacement
	seAbs               // abs.w / abs.l / d16(PC) — val = final address
	seImm               // #imm — val = pre-masked value
)

// specEA is one pre-resolved effective address. faddr/fsz describe the
// extension-word fetch the interpreter would perform (faddr = address of
// the first extension word, fsz = 0 none / Word / Long), replayed through
// CPU.fetchRef so the bus stream keeps every reference.
type specEA struct {
	kind  uint8
	reg   uint8
	step  uint8
	fsz   uint8
	faddr uint32
	val   uint32
}

// load resolves the operand and returns its value zero-extended to size
// (register values masked by mask), replaying extension fetches and
// post-increment/pre-decrement side effects exactly like resolveEA+loadOp.
func (a *specEA) load(c *CPU, size Size, mask uint32) uint32 {
	switch a.kind {
	case seDn:
		return c.D[a.reg] & mask
	case seAn:
		return c.A[a.reg] & mask
	case seInd:
		return c.read(c.A[a.reg], size, Read)
	case sePost:
		p := c.A[a.reg]
		c.A[a.reg] = p + uint32(a.step)
		return c.read(p, size, Read)
	case sePre:
		p := c.A[a.reg] - uint32(a.step)
		c.A[a.reg] = p
		return c.read(p, size, Read)
	case seDisp:
		c.fetchRef(a.faddr, Word)
		return c.read(c.A[a.reg]+a.val, size, Read)
	case seAbs:
		c.fetchRef(a.faddr, Size(a.fsz))
		return c.read(a.val, size, Read)
	default: // seImm
		c.fetchRef(a.faddr, Size(a.fsz))
		return a.val
	}
}

// calc resolves a memory operand to its final address (kinds seInd..seAbs
// only), replaying fetches and address-register side effects. Used by
// read-modify-write handlers, which resolve once and then read and write
// the same address — calling load and store separately would apply the
// post-increment twice.
func (a *specEA) calc(c *CPU) uint32 {
	switch a.kind {
	case seInd:
		return c.A[a.reg]
	case sePost:
		p := c.A[a.reg]
		c.A[a.reg] = p + uint32(a.step)
		return p
	case sePre:
		p := c.A[a.reg] - uint32(a.step)
		c.A[a.reg] = p
		return p
	case seDisp:
		c.fetchRef(a.faddr, Word)
		return c.A[a.reg] + a.val
	default: // seAbs
		c.fetchRef(a.faddr, Size(a.fsz))
		return a.val
	}
}

// specOp is one pre-decoded instruction of a specialized block. The exec
// loop (BlockEngine.execSpec) accounts the opcode fetch, sets PC to npc
// and calls fn; everything else the instruction needs was computed at
// translation time. Generic (non-specialized) ops carry npc = pc+2 so the
// legacy dispatch runs with the CPU positioned exactly as CPU.Step would
// have it.
//
// Field order is deliberate: everything the exec loop and the specialized
// handlers touch per instruction when no hook is bound (fn, operands,
// npc, flag constants, size, rn/x, the adapter flag and the cycle charge)
// packs into the first 64 bytes — one cache line per op — while pc/op,
// which only the trace, opcode-count and exec hooks and the rare generic
// adapters read, sit in the cold tail. Branch handlers that replay their displacement-word fetch take
// the address from src.faddr (src is otherwise unused there) so they stay
// on the hot line too.
type specOp struct {
	fn  func(c *CPU, s *specOp)
	src specEA
	dst specEA

	imm  uint32 // branch target / MOVEQ value / static shift count
	npc  uint32 // address of the next instruction (past all extension words)
	mask uint32
	msb  uint32
	size Size
	rn   uint8 // primary register (Dn/An number, family-specific)
	x    uint8 // condition code / quick value / shift encoding
	gad  uint8 // 1 if fn is the generic adapter (counts AdapterExec)

	cyc uint64 // precomputed fixed cycle charge

	// Cold tail: hook loop and generic adapters only.
	pc uint32 // address of the opcode word
	op uint16
}

// specialize fills s for the instruction (ent, op) at pc, reading
// extension words from the region bytes mem (based at base).
func specialize(s *specOp, ent *opEntry, op uint16, pc uint32, mem []byte, base uint32) {
	size := ent.size
	*s = specOp{
		imm:  0,
		pc:   pc,
		npc:  pc + 2 + 2*uint32(ent.extw),
		mask: size.Mask(),
		msb:  size.MSB(),
		size: size,
		op:   op,
		rn:   ent.rn,
		x:    ent.x,
	}
	ext := pc + 2
	mode, reg := int(ent.mode), int(ent.reg)
	long4 := uint64(0)
	if size == Long {
		long4 = 4
	}

	switch ent.sfam {
	case sfMOVEQ:
		s.fn = sMOVEQ
		s.imm = uint32(int32(int8(op)))
		s.cyc = 4

	case sfMoveToDn:
		src, _, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		if src.kind == seDn {
			s.fn = sMoveDnToDn
		} else {
			s.fn = sMoveToDn
		}
		s.cyc = 4 + eaCost(mode, reg, size)

	case sfMoveToMem:
		src, next, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		dst, _, ok := decodeSpecEA(int(ent.x), int(ent.rn), size, mem, base, next)
		if !ok {
			break
		}
		s.src, s.dst = src, dst
		// MOVE to memory dominates the profile; pick a per-destination-kind
		// variant so the hot path has no destination dispatch switch, and
		// for the shapes that carry the traffic (a register into (An)+ or
		// -(An), and the (An)+ -> (An)+ copy loop) fold the source load in
		// as well. Other sources into (An)+ take the generic adapter.
		switch dst.kind {
		case seInd:
			s.fn = sMoveToMemInd
		case sePost:
			switch src.kind {
			case seDn:
				s.fn = sMoveDnToMemPost
			case sePost:
				s.fn = sMovePostToMemPost
			}
		case sePre:
			if src.kind == seDn {
				s.fn = sMoveDnToMemPre
			} else {
				s.fn = sMoveToMemPre
			}
		case seDisp:
			s.fn = sMoveToMemDisp
		default: // seAbs
			s.fn = sMoveToMemAbs
		}
		s.cyc = 8 + long4 + eaCost(mode, reg, size)

	case sfMOVEA:
		// Only MOVEA.L carries traffic; MOVEA.W takes the generic adapter.
		if size != Long {
			break
		}
		src, _, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sMoveAL
		s.cyc = 4 + eaCost(mode, reg, size)

	case sfAddrOp:
		// Only ADDA carries traffic; SUBA takes the generic adapter.
		if ent.x != aluAdd {
			break
		}
		src, _, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sAddA
		s.cyc = 8 + eaCost(mode, reg, size)

	case sfADDQ, sfSUBQ:
		// Memory destinations take the generic adapter.
		if mode != ModeDataReg {
			break
		}
		s.rn = ent.reg
		if ent.sfam == sfADDQ {
			s.fn = sAddQDn
		} else {
			s.fn = sSubQDn
		}
		s.cyc = 4 + long4

	case sfADDQA:
		s.rn = ent.reg
		s.fn = sAddQA
		s.cyc = 8

	case sfCMPI:
		imm, next, _ := decodeSpecEA(ModeOther, RegImmediate, size, mem, base, ext)
		dst, _, ok := decodeSpecEA(mode, reg, size, mem, base, next)
		if !ok {
			break
		}
		s.src, s.dst = imm, dst
		s.fn = sCmpI
		s.cyc = 8 + eaCost(mode, reg, size)

	case sfImmArith:
		imm, next, _ := decodeSpecEA(ModeOther, RegImmediate, size, mem, base, ext)
		dst, _, ok := decodeSpecEA(mode, reg, size, mem, base, next)
		if !ok {
			break
		}
		s.src, s.dst = imm, dst
		if ent.x == aluAdd {
			s.fn = sAddI
		} else {
			s.fn = sSubI
		}
		if dst.kind == seDn {
			s.cyc = 8
		} else {
			s.cyc = 12
		}
		s.cyc += 2 * long4
		s.cyc += eaCost(mode, reg, size)

	case sfTST:
		src, _, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sTst
		s.cyc = 4 + eaCost(mode, reg, size)

	case sfCLR:
		dst, _, ok := decodeSpecEA(mode, reg, size, mem, base, ext)
		if !ok {
			break
		}
		s.dst = dst
		s.fn = sClr
		s.cyc = 4 + eaCost(mode, reg, size)
		if dst.kind != seDn {
			s.cyc += 4
		}

	case sfLEA:
		src, _, ok := decodeSpecEA(mode, reg, Long, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sLea
		s.cyc = 4

	case sfPEA:
		src, _, ok := decodeSpecEA(mode, reg, Long, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sPea
		s.cyc = 12

	case sfBcc:
		// Only the 16-bit displacement form carries traffic; Bcc.S takes
		// the generic adapter.
		if ent.extw != 1 {
			break
		}
		d := signExtend(beRead(mem, ext-base, Word), Word)
		s.imm = ext + d
		s.src.faddr = ext
		s.fn = sBccW

	case sfDBcc:
		d := signExtend(beRead(mem, ext-base, Word), Word)
		s.imm = ext + d
		s.src.faddr = ext
		s.rn = ent.reg
		s.fn = sDBcc

	case sfJMP:
		src, _, ok := decodeSpecEA(mode, reg, Long, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sJmp
		s.cyc = 8

	case sfJSR:
		src, _, ok := decodeSpecEA(mode, reg, Long, mem, base, ext)
		if !ok {
			break
		}
		s.src = src
		s.fn = sJsr
		s.cyc = 16

	case sfRTS:
		s.fn = sRts
		s.cyc = 16

	case sfShiftReg:
		// Only static counts carry traffic; a count in Dn takes the
		// generic adapter.
		if ent.x&shiftCountInReg != 0 {
			break
		}
		s.rn = ent.reg
		cnt := uint32(ent.rn)
		if cnt == 0 {
			cnt = 8
		}
		s.imm = cnt
		s.fn = sShiftImm
		s.cyc = 6 + 2*uint64(cnt)
		if size == Long {
			s.cyc += 2
		}

	case sfSWAP:
		s.rn = ent.reg
		s.fn = sSwap
		s.cyc = 4
	}

	if s.fn == nil {
		// No specialized form (sfNone or an index addressing mode): run the
		// legacy dispatch with PC past the opcode word, exactly as CPU.Step
		// would.
		s.fn = sGeneric
		s.gad = 1
		s.npc = pc + 2
	}
}

// decodeSpecEA pre-resolves the EA (mode, reg) at the given operand size,
// reading extension words from mem at address ext. It returns the operand,
// the address following the EA's extension words, and ok=false for the
// index modes (runtime register in the extension word) that specialization
// punts on. It must agree exactly with resolveEA's fetch behaviour and
// side effects.
func decodeSpecEA(mode, reg int, size Size, mem []byte, base, ext uint32) (specEA, uint32, bool) {
	switch mode {
	case ModeDataReg:
		return specEA{kind: seDn, reg: uint8(reg)}, ext, true
	case ModeAddrReg:
		return specEA{kind: seAn, reg: uint8(reg)}, ext, true
	case ModeIndirect:
		return specEA{kind: seInd, reg: uint8(reg)}, ext, true
	case ModePostInc, ModePreDec:
		step := uint8(size)
		if reg == 7 && size == Byte {
			step = 2 // keep SP word-aligned
		}
		k := sePost
		if mode == ModePreDec {
			k = sePre
		}
		return specEA{kind: k, reg: uint8(reg), step: step}, ext, true
	case ModeDisp16:
		d := signExtend(beRead(mem, ext-base, Word), Word)
		return specEA{kind: seDisp, reg: uint8(reg), val: d, faddr: ext}, ext + 2, true
	case ModeIndex:
		return specEA{}, ext, false
	default: // ModeOther
		switch reg {
		case RegAbsWord:
			v := signExtend(beRead(mem, ext-base, Word), Word)
			return specEA{kind: seAbs, val: v, faddr: ext, fsz: uint8(Word)}, ext + 2, true
		case RegAbsLong:
			v := beRead(mem, ext-base, Long)
			return specEA{kind: seAbs, val: v, faddr: ext, fsz: uint8(Long)}, ext + 4, true
		case RegPCDisp:
			// resolveEA's base is PC at the displacement word, which is ext.
			d := signExtend(beRead(mem, ext-base, Word), Word)
			return specEA{kind: seAbs, val: ext + d, faddr: ext, fsz: uint8(Word)}, ext + 2, true
		case RegImmediate:
			switch size {
			case Byte:
				v := beRead(mem, ext-base, Word) & 0xFF
				return specEA{kind: seImm, val: v, faddr: ext, fsz: uint8(Word)}, ext + 2, true
			case Word:
				v := beRead(mem, ext-base, Word)
				return specEA{kind: seImm, val: v, faddr: ext, fsz: uint8(Word)}, ext + 2, true
			default:
				v := beRead(mem, ext-base, Long)
				return specEA{kind: seImm, val: v, faddr: ext, fsz: uint8(Long)}, ext + 4, true
			}
		}
		return specEA{}, ext, false // PC-index
	}
}

// ---------------------------------------------------------------------------
// Specialized step functions. Each mirrors its legacy counterpart
// (ops_*.go) with operands pre-resolved and fixed cycles pre-summed;
// dynamic cycle terms (branch taken/not, shift counts) stay in the handler.

func sGeneric(c *CPU, s *specOp) { c.dispatch(s.op) }

func sMOVEQ(c *CPU, s *specOp) {
	v := s.imm
	c.D[s.rn] = v
	sr := c.sr &^ (FlagN | FlagZ | FlagV | FlagC)
	if v&0x80000000 != 0 {
		sr |= FlagN
	}
	if v == 0 {
		sr |= FlagZ
	}
	c.sr = sr
	c.Cycles += 4
}

func sMoveToDn(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	c.D[s.rn] = c.D[s.rn]&^s.mask | v
	sr := c.sr &^ (FlagN | FlagZ | FlagV | FlagC)
	if v&s.msb != 0 {
		sr |= FlagN
	}
	if v == 0 {
		sr |= FlagZ
	}
	c.sr = sr
	c.Cycles += s.cyc
}

// The sMoveToMem* variants each store to one destination kind (chosen at
// specialization time), replaying that kind's extension-word fetch and
// address-register side effect inline, so no dispatch switch runs per
// execution. (An)+ has no general variant: only the register and (An)+
// sources below carry traffic there. moveFlags is the shared MOVE
// condition-code tail.
func moveFlags(c *CPU, s *specOp, v uint32) {
	sr := c.sr &^ (FlagN | FlagZ | FlagV | FlagC)
	if v&s.msb != 0 {
		sr |= FlagN
	}
	if v == 0 {
		sr |= FlagZ
	}
	c.sr = sr
	c.Cycles += s.cyc
}

func sMoveToMemInd(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	c.write(c.A[s.dst.reg], s.size, v)
	moveFlags(c, s, v)
}

func sMoveToMemPre(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	p := c.A[s.dst.reg] - uint32(s.dst.step)
	c.A[s.dst.reg] = p
	c.write(p, s.size, v)
	moveFlags(c, s, v)
}

func sMoveToMemDisp(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	c.fetchRef(s.dst.faddr, Word)
	c.write(c.A[s.dst.reg]+s.dst.val, s.size, v)
	moveFlags(c, s, v)
}

func sMoveToMemAbs(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	c.fetchRef(s.dst.faddr, Size(s.dst.fsz))
	c.write(s.dst.val, s.size, v)
	moveFlags(c, s, v)
}

// Register-source variants: the load switch collapses to a masked
// register read, so the whole MOVE runs without an extra call.
func sMoveDnToDn(c *CPU, s *specOp) {
	v := c.D[s.src.reg] & s.mask
	c.D[s.rn] = c.D[s.rn]&^s.mask | v
	moveFlags(c, s, v)
}

func sMoveDnToMemPost(c *CPU, s *specOp) {
	v := c.D[s.src.reg] & s.mask
	p := c.A[s.dst.reg]
	c.A[s.dst.reg] = p + uint32(s.dst.step)
	c.write(p, s.size, v)
	moveFlags(c, s, v)
}

func sMoveDnToMemPre(c *CPU, s *specOp) {
	v := c.D[s.src.reg] & s.mask
	p := c.A[s.dst.reg] - uint32(s.dst.step)
	c.A[s.dst.reg] = p
	c.write(p, s.size, v)
	moveFlags(c, s, v)
}

// The (An)+ -> (An)+ copy-loop shape. Source side effect lands before
// the read and before the destination register is sampled, exactly like
// load followed by the (An)+ store (same-register MOVE (A0)+,(A0)+
// included).
func sMovePostToMemPost(c *CPU, s *specOp) {
	sp := c.A[s.src.reg]
	c.A[s.src.reg] = sp + uint32(s.src.step)
	v := c.read(sp, s.size, Read)
	dp := c.A[s.dst.reg]
	c.A[s.dst.reg] = dp + uint32(s.dst.step)
	c.write(dp, s.size, v)
	moveFlags(c, s, v)
}

func sMoveAL(c *CPU, s *specOp) {
	c.A[s.rn] = s.src.load(c, Long, 0xFFFFFFFF)
	c.Cycles += s.cyc
}

func sAddA(c *CPU, s *specOp) {
	c.A[s.rn] += signExtend(s.src.load(c, s.size, s.mask), s.size)
	c.Cycles += s.cyc
}

func sAddQDn(c *CPU, s *specOp) {
	q := uint32(s.x)
	d := c.D[s.rn] & s.mask
	res := d + q
	c.addFlags(q, d, res, s.size)
	c.D[s.rn] = c.D[s.rn]&^s.mask | res&s.mask
	c.Cycles += s.cyc
}

func sSubQDn(c *CPU, s *specOp) {
	q := uint32(s.x)
	d := c.D[s.rn] & s.mask
	res := d - q
	c.subFlags(q, d, res, s.size)
	c.D[s.rn] = c.D[s.rn]&^s.mask | res&s.mask
	c.Cycles += s.cyc
}

func sAddQA(c *CPU, s *specOp) {
	c.A[s.rn] += uint32(s.x)
	c.Cycles += 8
}

func sCmpI(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	var d uint32
	if s.dst.kind == seDn {
		d = c.D[s.dst.reg] & s.mask
	} else {
		d = c.read(s.dst.calc(c), s.size, Read)
	}
	c.cmpFlags(v, d, d-v, s.size)
	c.Cycles += s.cyc
}

func sAddI(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	if s.dst.kind == seDn {
		r := s.dst.reg
		d := c.D[r] & s.mask
		res := d + v
		c.addFlags(v, d, res, s.size)
		c.D[r] = c.D[r]&^s.mask | res&s.mask
	} else {
		addr := s.dst.calc(c)
		d := c.read(addr, s.size, Read)
		res := d + v
		c.addFlags(v, d, res, s.size)
		c.write(addr, s.size, res&s.mask)
	}
	c.Cycles += s.cyc
}

func sSubI(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	if s.dst.kind == seDn {
		r := s.dst.reg
		d := c.D[r] & s.mask
		res := d - v
		c.subFlags(v, d, res, s.size)
		c.D[r] = c.D[r]&^s.mask | res&s.mask
	} else {
		addr := s.dst.calc(c)
		d := c.read(addr, s.size, Read)
		res := d - v
		c.subFlags(v, d, res, s.size)
		c.write(addr, s.size, res&s.mask)
	}
	c.Cycles += s.cyc
}

func sTst(c *CPU, s *specOp) {
	v := s.src.load(c, s.size, s.mask)
	sr := c.sr &^ (FlagN | FlagZ | FlagV | FlagC)
	if v&s.msb != 0 {
		sr |= FlagN
	}
	if v == 0 {
		sr |= FlagZ
	}
	c.sr = sr
	c.Cycles += s.cyc
}

func sClr(c *CPU, s *specOp) {
	if s.dst.kind == seDn {
		c.D[s.dst.reg] &^= s.mask
	} else {
		c.write(s.dst.calc(c), s.size, 0)
	}
	c.sr = c.sr&^(FlagN|FlagZ|FlagV|FlagC) | FlagZ
	c.Cycles += s.cyc
}

func sLea(c *CPU, s *specOp) {
	c.A[s.rn] = s.src.calc(c)
	c.Cycles += 4
}

func sPea(c *CPU, s *specOp) {
	addr := s.src.calc(c)
	c.push32(addr)
	c.Cycles += 12
}

func sBccW(c *CPU, s *specOp) {
	c.fetchRef(s.src.faddr, Word)
	if c.testCond(int(s.x)) {
		c.PC = s.imm
		c.Cycles += 10
	} else {
		c.Cycles += 8
	}
}

func sDBcc(c *CPU, s *specOp) {
	c.fetchRef(s.src.faddr, Word)
	if c.testCond(int(s.x)) {
		c.Cycles += 12
		return
	}
	cnt := uint16(c.D[s.rn]) - 1
	c.D[s.rn] = c.D[s.rn]&0xFFFF0000 | uint32(cnt)
	if cnt != 0xFFFF {
		c.PC = s.imm
		c.Cycles += 10
	} else {
		c.Cycles += 14
	}
}

func sJmp(c *CPU, s *specOp) {
	c.PC = s.src.calc(c)
	c.Cycles += 8
}

func sJsr(c *CPU, s *specOp) {
	addr := s.src.calc(c)
	c.push32(s.npc)
	c.PC = addr
	c.Cycles += 16
}

func sRts(c *CPU, s *specOp) {
	c.PC = c.pop32()
	c.Cycles += 16
}

func sShiftImm(c *CPU, s *specOp) {
	v := c.D[s.rn] & s.mask
	res := c.shiftValue(int(s.x>>1&3), s.x&1 != 0, v, s.imm, s.size)
	c.D[s.rn] = c.D[s.rn]&^s.mask | res&s.mask
	c.Cycles += s.cyc
}

func sSwap(c *CPU, s *specOp) {
	v := c.D[s.rn]
	v = v>>16 | v<<16
	c.D[s.rn] = v
	c.setNZ(v, Long)
	c.Cycles += 4
}
