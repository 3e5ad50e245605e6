package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: palmsim
BenchmarkSpecMIPS 	      10	  20000000 ns/op	        20.00 emulated-MIPS
BenchmarkSpecMIPS 	      10	  24000000 ns/op	        18.00 emulated-MIPS
BenchmarkCacheSweep/serial-8         	       2	 300000000 ns/op	   9.00 MB/s
PASS
ok  	palmsim	5.0s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	mips, ok := got["SpecMIPS"]
	if !ok {
		t.Fatalf("SpecMIPS missing from %v", got)
	}
	if v := mips["ns/op"]; math.Abs(v-22e6) > 1 {
		t.Errorf("ns/op mean = %v, want 22e6", v)
	}
	if v := mips["emulated-MIPS"]; math.Abs(v-19) > 1e-9 {
		t.Errorf("emulated-MIPS mean = %v, want 19", v)
	}
	// The -8 GOMAXPROCS suffix must be stripped; the subbenchmark path kept.
	if _, ok := got["CacheSweep/serial"]; !ok {
		t.Errorf("CacheSweep/serial missing (suffix not stripped?): %v", got)
	}
}

func TestParseIgnoresCommentsAndNoise(t *testing.T) {
	got, err := parse(strings.NewReader("# regenerate with: go test ...\nnot a bench line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from noise", got)
	}
}

func TestRegressed(t *testing.T) {
	cases := []struct {
		unit                        string
		d, maxNs, maxAlloc, maxMIPS float64
		want                        bool
	}{
		{"ns/op", 0.6, 0.5, 0, 0, true},
		{"ns/op", 0.4, 0.5, 0, 0, false},
		{"ns/op", 9.9, 0, 0.1, 0, false}, // ns gate disabled
		{"allocs/op", 0.2, 0, 0.1, 0, true},
		{"allocs/op", 0.05, 0, 0.1, 0, false},
		{"allocs/op", 9.9, 0.5, 0, 0, false}, // alloc gate disabled
		{"MB/s", 9.9, 0.5, 0.1, 0, false},    // throughput never gates
		// MIPS is bigger-is-better: only a drop beyond the threshold gates.
		{derivedMIPSUnit, -0.2, 0, 0, 0.1, true},
		{derivedMIPSUnit, -0.05, 0, 0, 0.1, false},
		{derivedMIPSUnit, 0.5, 0, 0, 0.1, false},    // speedups never gate
		{derivedMIPSUnit, -9.9, 0.5, 0.1, 0, false}, // MIPS gate disabled
	}
	for _, c := range cases {
		if got := regressed(c.unit, c.d, c.maxNs, c.maxAlloc, c.maxMIPS); got != c.want {
			t.Errorf("regressed(%q, %v, %v, %v, %v) = %v, want %v",
				c.unit, c.d, c.maxNs, c.maxAlloc, c.maxMIPS, got, c.want)
		}
	}
}

func TestParseAveragesAllocs(t *testing.T) {
	const withAllocs = `
BenchmarkStackSweep/serial-8   3   90000000 ns/op   30.00 MB/s   520000 B/op   170 allocs/op
BenchmarkStackSweep/serial-8   3   90000000 ns/op   30.00 MB/s   520000 B/op   180 allocs/op
`
	got, err := parse(strings.NewReader(withAllocs))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got["StackSweep/serial"]
	if !ok {
		t.Fatalf("StackSweep/serial missing from %v", got)
	}
	if v := m["allocs/op"]; math.Abs(v-175) > 1e-9 {
		t.Errorf("allocs/op mean = %v, want 175", v)
	}
	if v := m["B/op"]; math.Abs(v-520000) > 1e-9 {
		t.Errorf("B/op mean = %v, want 520000", v)
	}
}

func TestDeriveMIPS(t *testing.T) {
	base := map[string]metrics{
		"SpecMIPS":   {"ns/op": 20e6, "emulated-MIPS": 40},
		"CacheSweep": {"ns/op": 300e6, "MB/s": 9},
	}
	cur := map[string]metrics{
		"SpecMIPS":   {"ns/op": 10e6, "emulated-MIPS": 78},
		"CacheSweep": {"ns/op": 300e6, "MB/s": 9},
	}
	deriveMIPS(base, cur)
	// Halving ns/op doubles the derived MIPS regardless of the reported
	// whole-run average.
	if v := cur["SpecMIPS"][derivedMIPSUnit]; math.Abs(v-80) > 1e-9 {
		t.Errorf("derived current MIPS = %v, want 80", v)
	}
	if v := base["SpecMIPS"][derivedMIPSUnit]; math.Abs(v-40) > 1e-9 {
		t.Errorf("derived baseline MIPS = %v, want 40", v)
	}
	// Benchmarks without emulated-MIPS gain no synthetic metric.
	if _, ok := cur["CacheSweep"][derivedMIPSUnit]; ok {
		t.Error("derived MIPS added to a non-MIPS benchmark")
	}
}

func TestFmtValue(t *testing.T) {
	cases := []struct {
		unit string
		v    float64
		want string
	}{
		{"ns/op", 2.5e9, "2.50s"},
		{"ns/op", 22.7e6, "22.7ms"},
		{"ns/op", 1500, "1.5µs"},
		{"ns/op", 42, "42.00"},
		{"emulated-MIPS", 19.6, "19.60"},
	}
	for _, c := range cases {
		if got := fmtValue(c.unit, c.v); got != c.want {
			t.Errorf("fmtValue(%q, %v) = %q, want %q", c.unit, c.v, got, c.want)
		}
	}
}
