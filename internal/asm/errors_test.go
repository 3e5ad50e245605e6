package asm

import (
	"strings"
	"testing"
)

// assembleErr asserts assembly fails and returns the message.
func assembleErr(t *testing.T, src string) string {
	t.Helper()
	_, err := Assemble(0x1000, src)
	if err == nil {
		t.Fatalf("no error for %q", src)
	}
	return err.Error()
}

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the diagnostic
	}{
		{" moveq #200,d0", "out of range"},
		{" addq #0,d0", "out of range"},
		{" addq #9,d0", "out of range"},
		{" lsl.l #9,d0", "shift count"},
		{" movea.b d0,a1", "invalid"},
		{" move.b a0,d0", "bad move source"},
		{" cmpa.b d0,a1", "cmpa.b is invalid"},
		{" adda.b d0,a1", "is invalid"},
		{" movem.b d0,(a0)", "movem.b is invalid"},
		{" lea d0,a1", "control EA"},
		{" pea d0", "control EA"},
		{" jmp d0", "control EA"},
		{" jsr (a0)+", "control EA"},
		{" dbra d0", "expected 2 operands"},
		{" dbra #1,label", "dbcc needs"},
		{" mulu d1", "expected 2 operands"},
		{" divu d0,a1", "<ea>,dn"},
		{" btst #3,a0", "bad bit-op destination"},
		{" clr.w a0", "bad operand"},
		{" move.w 40000(a0),d0", "out of 16-bit range"},
		{" move.w 300(a0,d1.w),d0", "out of 8-bit range"},
		{" swap a0", "data register"},
		{" ext.w a0", "data register"},
		{" stop d0", "stop needs"},
		{" bogusop d0", "unknown mnemonic"},
		{" dc.w \"str\"", "string literals require dc.b"},
		{" align 0", "align 0"},
		{" equ 5", "equ requires a label"},
		{" move.w d0", "expected 2 operands"},
		{" moveq #1,a0", "moveq needs"},
	}
	for _, c := range cases {
		msg := assembleErr(t, c.src)
		if !strings.Contains(msg, c.want) {
			t.Errorf("%q: diagnostic %q lacks %q", c.src, msg, c.want)
		}
	}
}

func TestBranchRangeDiagnostics(t *testing.T) {
	// Short branch to a far label.
	src := " bra.s far\n org $9000\nfar: rts\n"
	msg := assembleErr(t, src)
	if !strings.Contains(msg, "short branch") {
		t.Errorf("diagnostic %q", msg)
	}
}

func TestOrgBackwardsRejected(t *testing.T) {
	msg := assembleErr(t, " rts\n org 0\n")
	if !strings.Contains(msg, "backwards") {
		t.Errorf("diagnostic %q", msg)
	}
}

func TestUndefinedSymbolRejected(t *testing.T) {
	msg := assembleErr(t, " jsr nowhere_at_all\n")
	if !strings.Contains(msg, "undefined symbol") {
		t.Errorf("diagnostic %q", msg)
	}
}

func TestExpressionDiagnostics(t *testing.T) {
	cases := []string{
		" dc.w 5/0",
		" dc.w 5%0",
		" dc.w (1+2",
		" dc.w 'ab'",
		" dc.w $",
	}
	for _, src := range cases {
		if _, err := Assemble(0, src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestDirectives(t *testing.T) {
	img, err := Assemble(0x100, `
	 org $108
start:	rts
	 align 8
next:	rts
	 ds.w 3
after:	dc.b 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if v := mustSymbol(t, img, "start"); v != 0x108 {
		t.Errorf("org: start = %#x", v)
	}
	if v := mustSymbol(t, img, "next"); v != 0x110 {
		t.Errorf("align: next = %#x", v)
	}
	if v := mustSymbol(t, img, "after"); v != 0x118 {
		t.Errorf("ds.w: after = %#x", v)
	}
}

func TestCommentHandling(t *testing.T) {
	img, err := Assemble(0, `
* a classic column-0 comment
	rts		; trailing comment
	dc.b	";not a comment",0	; real comment
`)
	if err != nil {
		t.Fatal(err)
	}
	// rts(2) + 14 string bytes + NUL = 17 bytes.
	if len(img.Data) != 2+14+1 {
		t.Errorf("data = %d bytes: % X", len(img.Data), img.Data)
	}
}

func TestRegisterAliases(t *testing.T) {
	// sp == a7, fp == a6.
	a, err := Assemble(0, "\tmove.l d0,-(sp)\n\tlea -4(fp),a0\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(0, "\tmove.l d0,-(a7)\n\tlea -4(a6),a0\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Data) != string(b.Data) {
		t.Error("sp/fp aliases encode differently from a7/a6")
	}
}
