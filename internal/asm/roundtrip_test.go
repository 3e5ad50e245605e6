package asm

import (
	"strings"
	"testing"

	"palmsim/internal/m68k"
)

// imgBus exposes assembled bytes to the disassembler.
type imgBus struct {
	origin uint32
	data   []byte
}

func (b *imgBus) Read(addr uint32, size m68k.Size, kind m68k.Access) uint32 {
	off := addr - b.origin
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		var c byte
		if int(off+i) < len(b.data) {
			c = b.data[off+i]
		}
		v = v<<8 | uint32(c)
	}
	return v
}

func (b *imgBus) Write(addr uint32, size m68k.Size, v uint32) {}

// roundTripSources is one instruction per line, covering every mnemonic
// family and addressing mode the assembler and disassembler share.
var roundTripSources = []string{
	"moveq\t#5,d0",
	"moveq\t#-1,d7",
	"move.b\td1,d2",
	"move.w\t(a0),d1",
	"move.l\t(a0)+,d1",
	"move.w\td0,-(a0)",
	"move.w\t4(a0),d0",
	"move.w\t-8(a5),d3",
	"move.w\t2(a0,d1.w),d2",
	"move.w\t2(a0,a1.l),d2",
	"move.l\t#$DEADBEEF,d0",
	"move.w\t#$1234,(a0)",
	"move.w\t$4000.w,d0",
	"move.l\t$12345678.l,d0",
	"movea.w\td0,a0",
	"movea.l\t(a1),a2",
	"move\tsr,d0",
	"move\td0,ccr",
	"move\ta0,usp",
	"move\tusp,a1",
	"add.l\td1,d0",
	"add.w\t(a0),d3",
	"add.b\td2,(a1)",
	"adda.w\td0,a1",
	"adda.l\t#$1000,a2",
	"addq.w\t#1,d0",
	"addq.l\t#8,(a3)",
	"addi.w\t#$5,d3",
	"sub.l\td1,d0",
	"suba.l\td0,a1",
	"subq.l\t#1,d0",
	"subi.l\t#$100,d2",
	"cmp.l\td1,d0",
	"cmpa.w\td0,a1",
	"cmpi.w\t#$2,d3",
	"and.l\td1,d0",
	"andi.b\t#$F0,d0",
	"or.w\t(a2),d5",
	"ori.w\t#$F,d1",
	"not.l\td2",
	"clr.w\td0",
	"clr.b\t(a4)",
	"tst.l\td3",
	"mulu\td1,d0",
	"divu\td1,d0",
	"ext.w\td0",
	"ext.l\td5",
	"swap\td0",
	"btst\t#3,d0",
	"btst\td1,d0",
	"lsl.l\t#1,d0",
	"lsr.w\t#8,d1",
	"lsl.l\td1,d0",
	"lea\t16(a0),a1",
	"lea\t$4000.w,a3",
	"pea\t(a0)",
	"jmp\t(a0)",
	"jsr\t$2000.w",
	"jsr\t$12000.l",
	"rts",
	"rte",
	"stop\t#$2000",
	"movem.l\td0-d2/a0,-(a7)",
	"movem.l\t(a7)+,d0-d2/a0",
	"movem.w\td0/d4-d5,(a1)",
	"movem.w\t(a2),d1/a3",
}

// TestAssembleDisassembleRoundTrip assembles each instruction, runs the
// disassembler over the encoding, reassembles the disassembler's output,
// and requires identical bytes — a differential test binding the encoder
// and decoder together.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	const origin = 0x1000
	for _, src := range roundTripSources {
		img1, err := Assemble(origin, "\t"+src+"\n")
		if err != nil {
			t.Errorf("assemble %q: %v", src, err)
			continue
		}
		text, size := m68k.Disassemble(&imgBus{origin: origin, data: img1.Data}, origin)
		if int(size) != len(img1.Data) {
			t.Errorf("%q: disassembler consumed %d bytes of %d", src, size, len(img1.Data))
			continue
		}
		// Strip any trailing comment the disassembler added.
		if i := strings.Index(text, ";"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		img2, err := Assemble(origin, "\t"+text+"\n")
		if err != nil {
			t.Errorf("%q -> %q: reassembly failed: %v", src, text, err)
			continue
		}
		if string(img1.Data) != string(img2.Data) {
			t.Errorf("%q -> %q: bytes differ\n  first:  % X\n  second: % X",
				src, text, img1.Data, img2.Data)
		}
	}
}

// TestBranchRoundTrip covers branch forms, which encode PC-relative
// displacements and so need a target address in range of the origin.
func TestBranchRoundTrip(t *testing.T) {
	const origin = 0x1000
	sources := []string{
		"bra.s\t$1006",
		"bra\t$1100",
		"bsr.s\t$1010",
		"bsr\t$1400",
		"beq\t$1020",
		"bne.s\t$1008",
		"bgt\t$1030",
		"ble.s\t$1004",
		"dbra\td0,$1004",
		"dbeq\td3,$1100",
	}
	for _, src := range sources {
		img1, err := Assemble(origin, "\t"+src+"\n")
		if err != nil {
			t.Errorf("assemble %q: %v", src, err)
			continue
		}
		text, _ := m68k.Disassemble(&imgBus{origin: origin, data: img1.Data}, origin)
		img2, err := Assemble(origin, "\t"+text+"\n")
		if err != nil {
			t.Errorf("%q -> %q: reassembly failed: %v", src, text, err)
			continue
		}
		if string(img1.Data) != string(img2.Data) {
			t.Errorf("%q -> %q: bytes differ\n  first:  % X\n  second: % X",
				src, text, img1.Data, img2.Data)
		}
	}
}

// TestPCRelativeRoundTrip: PC-relative sources disassemble to absolute
// targets that must reassemble to the same displacement.
func TestPCRelativeRoundTrip(t *testing.T) {
	const origin = 0x1000
	img1, err := Assemble(origin, "\tlea\t$1100(pc),a0\n")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := m68k.Disassemble(&imgBus{origin: origin, data: img1.Data}, origin)
	img2, err := Assemble(origin, "\t"+text+"\n")
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	if string(img1.Data) != string(img2.Data) {
		t.Fatalf("pc-relative round trip: %q -> % X vs % X", text, img1.Data, img2.Data)
	}
}
