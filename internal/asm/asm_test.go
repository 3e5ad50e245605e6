package asm

import (
	"strings"
	"testing"

	"palmsim/internal/m68k"
)

// mustSymbol resolves a symbol the test requires to exist.
func mustSymbol(t *testing.T, img *Image, name string) uint32 {
	t.Helper()
	v, err := img.SymbolErr(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// words assembles source at origin 0x1000 and returns the output as words.
func words(t *testing.T, src string) []uint16 {
	t.Helper()
	img, err := Assemble(0x1000, src)
	if err != nil {
		t.Fatalf("assemble: %v\nsource:\n%s", err, src)
	}
	if len(img.Data)%2 != 0 {
		t.Fatalf("odd image size %d", len(img.Data))
	}
	out := make([]uint16, len(img.Data)/2)
	for i := range out {
		out[i] = uint16(img.Data[2*i])<<8 | uint16(img.Data[2*i+1])
	}
	return out
}

func expect(t *testing.T, src string, want ...uint16) {
	t.Helper()
	got := words(t, " "+src)
	if len(got) != len(want) {
		t.Fatalf("%q: assembled %04X, want %04X", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: assembled %04X, want %04X", src, got, want)
		}
	}
}

func TestEncodings(t *testing.T) {
	// Each expectation cross-checks the encodings the CPU tests use.
	expect(t, "moveq #5,d0", 0x7005)
	expect(t, "moveq #-1,d0", 0x70FF)
	expect(t, "move.l d1,d2", 0x2401)
	expect(t, "move.b d1,d2", 0x1401)
	expect(t, "move.w #$1234,(a0)", 0x30BC, 0x1234)
	expect(t, "move.w (a0)+,d1", 0x3218)
	expect(t, "move.w d0,-(a0)", 0x3100)
	expect(t, "move.b d0,-(sp)", 0x1F00)
	expect(t, "move.w 4(a0),d0", 0x3028, 0x0004)
	expect(t, "move.w 2(a0,d1.w),d2", 0x3430, 0x1002)
	expect(t, "move.w $4000.w,d0", 0x3038, 0x4000)
	expect(t, "movea.w d0,a0", 0x3040)
	expect(t, "add.l d1,d0", 0xD081)
	expect(t, "sub.l d1,d0", 0x9081)
	expect(t, "cmp.l d1,d0", 0xB081)
	expect(t, "addq.w #1,d0", 0x5240)
	expect(t, "subq.l #1,d0", 0x5380)
	expect(t, "addq.l #2,a0", 0x5488)
	expect(t, "and.l d1,d0", 0xC081)
	expect(t, "or.l d1,d0", 0x8081)
	expect(t, "and.b #$f0,d0", 0x0200, 0x00F0)
	expect(t, "ori.w #$000f,d1", 0x0041, 0x000F)
	expect(t, "addi.w #5,d3", 0x0643, 0x0005)
	expect(t, "subi.w #3,d3", 0x0443, 0x0003)
	expect(t, "cmpi.w #2,d3", 0x0C43, 0x0002)
	expect(t, "btst #3,d0", 0x0800, 0x0003)
	expect(t, "btst d1,d0", 0x0300)
	expect(t, "lsl.l #1,d0", 0xE388)
	expect(t, "lsr.l d1,d0", 0xE2A8)
	expect(t, "mulu d1,d0", 0xC0C1)
	expect(t, "divu d1,d0", 0x80C1)
	expect(t, "clr.w d0", 0x4240)
	expect(t, "not.l d2", 0x4682)
	expect(t, "tst.l d3", 0x4A83)
	expect(t, "ext.w d0", 0x4880)
	expect(t, "ext.l d0", 0x48C0)
	expect(t, "swap d0", 0x4840)
	expect(t, "lea 16(a0),a1", 0x43E8, 0x0010)
	expect(t, "pea (a0)", 0x4850)
	expect(t, "jmp (a0)", 0x4ED0)
	expect(t, "jsr $2000", 0x4EB8, 0x2000)
	expect(t, "jsr $12000", 0x4EB9, 0x0001, 0x2000)
	expect(t, "rts", 0x4E75)
	expect(t, "rte", 0x4E73)
	expect(t, "stop #$2000", 0x4E72, 0x2000)
	expect(t, "adda.l d0,a1", 0xD3C0)
	expect(t, "adda.w #$8000,a0", 0xD0FC, 0x8000)
	expect(t, "add.l d0,a1", 0xD3C0) // add to An folds to adda
	expect(t, "move #0,sr", 0x46FC, 0x0000)
	expect(t, "move sr,d0", 0x40C0)
	expect(t, "move d0,ccr", 0x44C0)
	expect(t, "move a0,usp", 0x4E60)
	expect(t, "move usp,a1", 0x4E69)
	expect(t, "movem.l d0-d2/a0,-(sp)", 0x48E7, 0xE080)
	expect(t, "movem.l (sp)+,d0-d2/a0", 0x4CDF, 0x0107)
	expect(t, "andi #%11111011,ccr", 0x023C, 0x00FB)
	expect(t, "ori #1,ccr", 0x003C, 0x0001)
}

func TestBranchEncodings(t *testing.T) {
	got := words(t, `
	start:	bra.s over
	 rts
	over:	rts
	`)
	if got[0] != 0x6002 {
		t.Errorf("bra.s over = %04X, want 6002", got[0])
	}
	got = words(t, `
	loop:	rts
	 dbra d0,loop
	`)
	if got[1] != 0x51C8 || got[2] != 0xFFFC {
		t.Errorf("dbra = %04X %04X, want 51C8 FFFC", got[1], got[2])
	}
	got = words(t, `
	 beq target
	 rts
	target:	rts
	`)
	if got[0] != 0x6700 || got[1] != 0x0004 {
		t.Errorf("beq.w = %04X %04X, want 6700 0004", got[0], got[1])
	}
}

func TestBackwardShortBranch(t *testing.T) {
	got := words(t, `
	here:	bra.s here
	`)
	if got[0] != 0x60FE {
		t.Errorf("bra.s self = %04X, want 60FE", got[0])
	}
}

func TestPCRelative(t *testing.T) {
	got := words(t, `
	 lea table(pc),a0
	 rts
	table:	dc.w 7
	`)
	// lea at 0x1000; ext word at 0x1002; table at 0x1006 -> disp 4.
	if got[0] != 0x41FA || got[1] != 0x0004 {
		t.Errorf("lea table(pc) = %04X %04X, want 41FA 0004", got[0], got[1])
	}
}

func TestDataDirectives(t *testing.T) {
	img, err := Assemble(0, `
	 dc.b "AB",0
	 even
	 dc.w $1234
	 dc.l $DEADBEEF
	 ds.b 2
	 dc.b 1
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{'A', 'B', 0, 0, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 1}
	if len(img.Data) != len(want) {
		t.Fatalf("data = % X, want % X", img.Data, want)
	}
	for i := range want {
		if img.Data[i] != want[i] {
			t.Fatalf("data[%d] = %#x, want %#x", i, img.Data[i], want[i])
		}
	}
}

func TestEquAndExpressions(t *testing.T) {
	img, err := Assemble(0, `
	base	equ	$100
	size	equ	base+$20*2
	 dc.w size
	 dc.w base|%1010
	 dc.w (1<<4)+2
	 dc.w 'A'
	`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) uint16 {
		return uint16(img.Data[2*i])<<8 | uint16(img.Data[2*i+1])
	}
	if get(0) != 0x140 {
		t.Errorf("size = %#x, want 0x140", get(0))
	}
	if get(1) != 0x10A {
		t.Errorf("or = %#x, want 0x10A", get(1))
	}
	if get(2) != 18 {
		t.Errorf("shift = %d, want 18", get(2))
	}
	if get(3) != 'A' {
		t.Errorf("char = %d, want 'A'", get(3))
	}
}

func TestForwardReferenceAbsoluteIsLong(t *testing.T) {
	// Forward references must assemble identically in both passes: the
	// absolute form is always 32-bit for symbolic expressions.
	got := words(t, `
	 jsr fwd
	fwd:	rts
	`)
	if got[0] != 0x4EB9 {
		t.Errorf("jsr fwd = %04X, want 4EB9 (abs.l)", got[0])
	}
	if got[3] != 0x4E75 {
		t.Errorf("label resolved wrong: %04X", got[3])
	}
	// And the target must equal the label address.
	addr := uint32(got[1])<<16 | uint32(got[2])
	if addr != 0x1006 {
		t.Errorf("fwd = %#x, want 0x1006", addr)
	}
}

func TestSymbolTable(t *testing.T) {
	img, err := Assemble(0x4000, `
	start:	rts
	mid:	rts
	k	equ	42
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v := mustSymbol(t, img, "start"); v != 0x4000 {
		t.Errorf("start = %#x", v)
	}
	if v := mustSymbol(t, img, "mid"); v != 0x4002 {
		t.Errorf("mid = %#x", v)
	}
	if v := mustSymbol(t, img, "k"); v != 42 {
		t.Errorf("k = %d", v)
	}
	if _, ok := img.Symbol("nope"); ok {
		t.Error("undefined symbol reported as defined")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		" bogus d0",
		" moveq #500,d0",
		" move.b d0,a1",
		" addq #9,d0",
		" dbra d0",
		"dup: rts\ndup: rts",
		" move.w undefinedsym(a0,d99),d0",
		" jsr d0",
		" lea (a0)+,a1",
	}
	for _, src := range cases {
		if _, err := Assemble(0x1000, src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestErrorCarriesLineNumber(t *testing.T) {
	_, err := Assemble(0, "\trts\n\trts\n\tbogus\n")
	if err == nil {
		t.Fatal("expected error")
	}
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if ae.Line != 3 {
		t.Errorf("line = %d, want 3", ae.Line)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("message %q lacks line number", err)
	}
}

// execBus adapts a byte slice into an m68k.Bus for end-to-end tests.
type execBus struct{ mem [1 << 16]byte }

func (b *execBus) Read(addr uint32, size m68k.Size, kind m68k.Access) uint32 {
	addr &= 0xFFFF
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		v = v<<8 | uint32(b.mem[addr+i])
	}
	return v
}

func (b *execBus) Write(addr uint32, size m68k.Size, v uint32) {
	addr &= 0xFFFF
	for i := uint32(size); i > 0; i-- {
		b.mem[addr+i-1] = byte(v)
		v >>= 8
	}
}

// TestAssembledProgramRuns assembles a small program (sum of 1..10 via a
// loop plus a subroutine call) and executes it on the CPU core.
func TestAssembledProgramRuns(t *testing.T) {
	img, err := Assemble(0x1000, `
	start:
		moveq	#10,d1		; n = 10
		moveq	#0,d0		; sum = 0
	loop:
		add.l	d1,d0
		subq.l	#1,d1
		bne.s	loop
		bsr	double
		move.l	d0,result
	halt:
		bra.s	halt

	double:
		add.l	d0,d0
		rts

	result:	dc.l	0
	`)
	if err != nil {
		t.Fatal(err)
	}
	b := &execBus{}
	// Vectors: SSP + PC.
	b.Write(0, m68k.Long, 0x8000)
	b.Write(4, m68k.Long, 0x1000)
	copy(b.mem[img.Origin:], img.Data)

	c := m68k.New(b)
	c.Reset()
	for i := 0; i < 500; i++ {
		c.Step()
	}
	haltAddr := mustSymbol(t, img, "halt")
	if c.PC != haltAddr && c.PC != haltAddr+2 {
		t.Fatalf("PC = %#x, want parked at halt %#x", c.PC, haltAddr)
	}
	result := b.Read(mustSymbol(t, img, "result"), m68k.Long, m68k.Read)
	if result != 110 {
		t.Errorf("result = %d, want 110 (2 * sum 1..10)", result)
	}
}

// TestAssembledSubroutineWithStackFrame exercises the ROM's calling
// convention: arguments on the stack, callee-saved registers pushed and
// popped with movem, arguments read at an offset from sp past the saves,
// and the caller popping its arguments.
func TestAssembledSubroutineWithStackFrame(t *testing.T) {
	img, err := Assemble(0x1000, `
	start:
		move.l	#$11111111,d2
		move.l	#7,-(sp)
		bsr	addone
		addq.l	#4,sp
		move.l	d0,result
	halt:	bra.s	halt

	; long addone(long x): returns x+1, preserves d2
	addone:
		movem.l	d2-d3,-(sp)		; argument now at 12(sp)
		move.l	#$22222222,d2
		move.l	12(sp),d0
		addq.l	#1,d0
		movem.l	(sp)+,d2-d3
		rts

	result:	dc.l	0
	`)
	if err != nil {
		t.Fatal(err)
	}
	b := &execBus{}
	b.Write(0, m68k.Long, 0x8000)
	b.Write(4, m68k.Long, 0x1000)
	copy(b.mem[img.Origin:], img.Data)
	c := m68k.New(b)
	c.Reset()
	for i := 0; i < 200; i++ {
		c.Step()
	}
	if got := b.Read(mustSymbol(t, img, "result"), m68k.Long, m68k.Read); got != 8 {
		t.Errorf("result = %d, want 8", got)
	}
	if c.D[2] != 0x11111111 {
		t.Errorf("D2 = %#x, callee-save violated", c.D[2])
	}
}
