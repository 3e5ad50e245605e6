// Package asm implements a small two-pass assembler for the Motorola 68000
// instruction set, sufficient to build the synthetic Palm OS ROM, the
// applications it contains, and the instrumentation hack stubs.
//
// It accepts only the instruction forms those sources use: a form stays
// only if a source in internal/rom, internal/hack or internal/exp
// assembles it. A source that needs another form adds that form's encoder
// and a round-trip row (roundtrip_test.go) in the same change. The
// disassembler in internal/m68k covers the full 68000.
//
// The accepted syntax is classic Motorola style:
//
//	; full-line comment
//	start:  move.l  #$12345678,d0
//	        lea     table(pc),a0
//	loop:   move.w  (a0)+,d1
//	        dbra    d0,loop
//	        rts
//	table:  dc.w    1,2,3
//	msg:    dc.b    "hello",0
//	        even
//	bufsz   equ     64
//
// Labels end with ':' (the colon is optional in column 0). Mnemonics take
// an optional .b/.w/.l size suffix; branches additionally accept .s for the
// short form (unsuffixed branches assemble to the 16-bit form so that
// forward references never change instruction sizes between passes).
// Numeric literals are decimal, $hex, %binary or 'c' character constants.
// Expressions support + - * / % & | ^ << >> and parentheses.
package asm

import (
	"fmt"
	"strings"

	"palmsim/internal/simerr"
)

// Image is the output of an assembly run: a byte image with a load origin
// and the symbol table.
type Image struct {
	Origin  uint32
	Data    []byte
	Symbols map[string]uint32
}

// Symbol returns the value of a defined symbol.
func (img *Image) Symbol(name string) (uint32, bool) {
	v, ok := img.Symbols[strings.ToLower(name)]
	return v, ok
}

// SymbolErr returns the value of a symbol, or a simerr.ErrMissingSymbol
// carrier when it was never defined.
func (img *Image) SymbolErr(name string) (uint32, error) {
	v, ok := img.Symbol(name)
	if !ok {
		return 0, simerr.New(simerr.ErrMissingSymbol, "asm", fmt.Errorf("symbol %q not defined", name))
	}
	return v, nil
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble assembles source at the given origin address.
func Assemble(origin uint32, source string) (*Image, error) {
	a := &assembler{
		origin:  origin,
		symbols: make(map[string]uint32),
		known:   make(map[string]bool),
	}
	lines := strings.Split(source, "\n")

	// Pass 1: define symbols, compute layout.
	a.pass = 1
	a.pc = origin
	if err := a.run(lines); err != nil {
		return nil, err
	}
	// Pass 2: emit code with all symbols resolved.
	a.pass = 2
	a.pc = origin
	a.out = a.out[:0]
	for k := range a.known {
		a.known[k] = true
	}
	if err := a.run(lines); err != nil {
		return nil, err
	}
	return &Image{Origin: origin, Data: a.out, Symbols: a.symbols}, nil
}

type assembler struct {
	origin  uint32
	pc      uint32
	out     []byte
	symbols map[string]uint32
	known   map[string]bool // defined by the end of pass 1
	pass    int
	line    int
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) run(lines []string) error {
	for i, raw := range lines {
		a.line = i + 1
		if err := a.statement(raw); err != nil {
			return err
		}
	}
	return nil
}

// statement assembles a single source line.
func (a *assembler) statement(raw string) error {
	text := stripComment(raw)
	if strings.TrimSpace(text) == "" {
		return nil
	}

	// "name equ value" defines a constant, whether or not indented.
	if fields := strings.Fields(text); len(fields) >= 3 && strings.EqualFold(fields[1], "equ") {
		low := strings.ToLower(text)
		exprText := text[strings.Index(low, "equ")+3:]
		v, err := a.eval(strings.TrimSpace(exprText))
		if err != nil {
			return err
		}
		return a.define(strings.TrimSuffix(fields[0], ":"), v)
	}

	label, rest := splitLabel(text)
	if label != "" {
		if err := a.define(label, a.pc); err != nil {
			return err
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return nil
	}

	mnemonic, operands := splitMnemonic(rest)
	return a.instruction(strings.ToLower(mnemonic), operands)
}

func (a *assembler) define(name string, v uint32) error {
	key := strings.ToLower(name)
	if a.pass == 1 {
		if _, dup := a.symbols[key]; dup {
			return a.errf("symbol %q redefined", name)
		}
	}
	a.symbols[key] = v
	a.known[key] = a.pass >= 1
	return nil
}

// emit16 appends a big-endian word.
func (a *assembler) emit16(v uint16) {
	a.out = append(a.out, byte(v>>8), byte(v))
	a.pc += 2
}

func (a *assembler) emit32(v uint32) {
	a.emit16(uint16(v >> 16))
	a.emit16(uint16(v))
}

func (a *assembler) emit8(v byte) {
	a.out = append(a.out, v)
	a.pc++
}

// stripComment removes ';' comments (not inside quotes).
func stripComment(s string) string {
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case ';':
			return s[:i]
		case '*':
			// '*' starts a comment only in column 0 (classic style).
			if strings.TrimSpace(s[:i]) == "" {
				return s[:i]
			}
		}
	}
	return s
}

// splitLabel extracts a leading label. A label is an identifier either
// terminated by ':' or starting in column 0.
func splitLabel(s string) (label, rest string) {
	trimmed := strings.TrimLeft(s, " \t")
	indented := len(trimmed) != len(s)
	i := 0
	for i < len(trimmed) && isIdentChar(trimmed[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", s
	}
	word := trimmed[:i]
	tail := trimmed[i:]
	if strings.HasPrefix(tail, ":") {
		return word, tail[1:]
	}
	if !indented {
		return word, tail
	}
	return "", s
}

func isIdentChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// splitMnemonic separates the mnemonic from its operand field.
func splitMnemonic(s string) (string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// splitOperands splits the operand field on commas that are not inside
// parentheses or quotes.
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var parts []string
	depth := 0
	inStr := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts
}
