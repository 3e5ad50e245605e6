package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"palmsim/internal/rom"
)

// TestListingsAreDeterministic builds each listing several times: labels
// that share an address (apps_begin and app_launcher, the equ constants
// gateevtpop and trapevtgetevent) must print in one order every time, and
// every label at an address must print.
func TestListingsAreDeterministic(t *testing.T) {
	img, err := rom.Build()
	if err != nil {
		t.Fatal(err)
	}
	listings := []struct {
		name  string
		print func(io.Writer, *rom.Image)
		want  []string
	}{
		{"symbols", printSymbols, []string{
			"  00000001  gateevtpop\n  00000001  trapevtgetevent\n",
			"  10000466  app_launcher\n  10000466  apps_begin\n",
		}},
		{"traps", printTraps, []string{"-> 10000120 fatal\n"}},
		{"disasm", disassemble, []string{"app_launcher:\napps_begin:\n  10000466  "}},
	}
	for _, l := range listings {
		var first bytes.Buffer
		l.print(&first, img)
		for _, want := range l.want {
			if !strings.Contains(first.String(), want) {
				t.Errorf("-%s listing lacks %q", l.name, want)
			}
		}
		for run := 0; run < 5; run++ {
			var again bytes.Buffer
			l.print(&again, img)
			if again.String() != first.String() {
				t.Fatalf("-%s listing differs between two runs", l.name)
			}
		}
	}
}
