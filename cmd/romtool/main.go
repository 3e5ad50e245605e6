// Command romtool builds and inspects the synthetic Palm OS flash image:
// its size, entry point, symbol table, and the initial trap dispatch
// table. It can also write the raw image to a file (the ROMTransfer.prc
// role of §2.2).
//
// Usage:
//
//	romtool                 summary
//	romtool -symbols        full symbol table
//	romtool -traps          trap table with handler symbols
//	romtool -disasm         disassembly of the code sections
//	romtool -o rom.bin      write the flash image
//
// Listings print every label at an address, ordered by name, so two runs
// print the same text.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"palmsim/internal/bus"
	"palmsim/internal/m68k"
	"palmsim/internal/palmos"
	"palmsim/internal/rom"
)

func main() {
	symbols := flag.Bool("symbols", false, "print the symbol table")
	traps := flag.Bool("traps", false, "print the trap dispatch table")
	disasm := flag.Bool("disasm", false, "disassemble the ROM code sections")
	out := flag.String("o", "", "write the flash image to a file")
	flag.Parse()

	img, err := rom.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "romtool:", err)
		os.Exit(1)
	}
	fmt.Printf("ROM image: %d bytes at %#08x, boot entry %#08x\n",
		len(img.Data), uint32(bus.ROMBase), img.Entry())

	if *symbols {
		printSymbols(os.Stdout, img)
	}
	if *traps {
		printTraps(os.Stdout, img)
	}
	if *disasm {
		disassemble(os.Stdout, img)
	}

	if *out != "" {
		if err := os.WriteFile(*out, img.Data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "romtool:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// labels maps each address to every symbol defined there, sorted by name,
// so a listing prints the same labels in the same order on every run.
func labels(img *rom.Image) map[uint32][]string {
	rev := map[uint32][]string{}
	for n, a := range img.Symbols {
		rev[a] = append(rev[a], n)
	}
	for _, names := range rev {
		sort.Strings(names)
	}
	return rev
}

// printSymbols lists the symbol table by address, ties by name.
func printSymbols(w io.Writer, img *rom.Image) {
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := img.Symbols[names[i]], img.Symbols[names[j]]
		if a != b {
			return a < b
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "  %08x  %s\n", img.Symbols[n], n)
	}
}

// printTraps lists the initial trap dispatch table with every label at
// each handler's address.
func printTraps(w io.Writer, img *rom.Image) {
	inittab := img.Symbols["inittab"]
	rev := labels(img)
	for i := 0; i < palmos.NumTraps; i++ {
		off := inittab - bus.ROMBase + uint32(i)*4
		addr := uint32(img.Data[off])<<24 | uint32(img.Data[off+1])<<16 |
			uint32(img.Data[off+2])<<8 | uint32(img.Data[off+3])
		fmt.Fprintf(w, "  trap %#04x %-22s -> %08x %s\n", i, palmos.TrapName(i), addr, strings.Join(rev[addr], " "))
	}
}

// imgBus adapts the flash image to the CPU's bus interface so the
// disassembler can walk it.
type imgBus struct{ data []byte }

func (b *imgBus) Read(addr uint32, size m68k.Size, kind m68k.Access) uint32 {
	off := addr - bus.ROMBase
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

// disassemble lists the ROM's code, each instruction under every label at
// its address.
func disassemble(w io.Writer, img *rom.Image) {
	rev := labels(img)
	b := &imgBus{data: img.Data}
	end, ok := img.Symbol("apps_end")
	if !ok {
		end = bus.ROMBase + uint32(len(img.Data))
	}
	for addr := uint32(bus.ROMBase); addr < end; {
		for _, name := range rev[addr] {
			fmt.Fprintf(w, "%s:\n", name)
		}
		text, size := m68k.Disassemble(b, addr)
		fmt.Fprintf(w, "  %08x  %s\n", addr, text)
		addr += size
	}
}
