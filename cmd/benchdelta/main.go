// Command benchdelta compares two `go test -bench` output files and
// reports the per-benchmark deltas as a Markdown table — a dependency-free
// benchstat for the CI job summary. The committed baseline lives at
// .github/bench-baseline.txt; regenerate it with the command recorded in
// that file's header.
//
// Usage:
//
//	go test -run '^$' -bench 'SpecMIPS|CacheSweep' -count 3 . > new.txt
//	benchdelta -baseline .github/bench-baseline.txt -current new.txt
//
// With -max-regress 0.5, an ns/op regression beyond +50% on any benchmark
// makes the command exit non-zero (0 disables gating; CI machines are too
// noisy for a tight threshold to be useful). -max-alloc-regress gates
// allocs/op the same way — allocation counts are deterministic, so a much
// tighter threshold works there. -max-mips-regress gates the derived
// MIPS(ns/op) metric, where a regression is a *decrease*: engine speed
// going down is the failure, not up.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metrics maps unit name (e.g. "ns/op", "emulated-MIPS") to the mean of
// the observed values for one benchmark.
type metrics map[string]float64

// benchLine matches one result line: name, iteration count, then
// value/unit pairs handled separately.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parse reads `go test -bench` output, averaging repeated runs (-count>1)
// of the same benchmark. The trailing -P GOMAXPROCS suffix is stripped so
// baselines survive a core-count change.
func parse(r io.Reader) (map[string]metrics, error) {
	sums := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if sums[name] == nil {
				sums[name] = map[string][]float64{}
			}
			sums[name][unit] = append(sums[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]metrics{}
	for name, units := range sums {
		out[name] = metrics{}
		for unit, vals := range units {
			var s float64
			for _, v := range vals {
				s += v
			}
			out[name][unit] = s / float64(len(vals))
		}
	}
	return out, nil
}

func parseFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// fmtValue renders ns/op in a human scale and leaves other units as-is.
func fmtValue(unit string, v float64) string {
	if unit == "ns/op" {
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.1fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fµs", v/1e3)
		}
	}
	return fmt.Sprintf("%.2f", v)
}

// derivedMIPSUnit labels the synthetic metric deriveMIPS adds.
const derivedMIPSUnit = "MIPS(ns/op)"

// deriveMIPS adds a wall-clock-derived MIPS metric to every benchmark that
// reports emulated-MIPS in the baseline: the workload (emulated
// instructions per iteration) is fixed, so MIPS scales as the inverse of
// ns/op, and current = baselineMIPS · baseNs/curNs. Unlike the reported
// emulated-MIPS — a whole-run average that -count and iteration-count
// differences skew — the derived value moves exactly with the per-iteration
// wall time the ns/op gate already tracks, so its delta IS the engine-speed
// delta the job summary wants to surface.
func deriveMIPS(base, cur map[string]metrics) {
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			continue
		}
		baseMIPS, baseNs, curNs := b["emulated-MIPS"], b["ns/op"], c["ns/op"]
		if baseMIPS == 0 || baseNs == 0 || curNs == 0 {
			continue
		}
		b[derivedMIPSUnit] = baseMIPS
		c[derivedMIPSUnit] = baseMIPS * baseNs / curNs
	}
}

// regressed reports whether a fractional delta d on the given unit trips
// one of the enabled gates (ns/op wall time, allocs/op allocation count,
// derived engine MIPS). For time and allocations growth is the regression;
// for MIPS — a bigger-is-better rate — a drop is.
func regressed(unit string, d, maxNs, maxAllocs, maxMIPS float64) bool {
	switch unit {
	case "ns/op":
		return maxNs > 0 && d > maxNs
	case "allocs/op":
		return maxAllocs > 0 && d > maxAllocs
	case derivedMIPSUnit:
		return maxMIPS > 0 && d < -maxMIPS
	}
	return false
}

func main() {
	baselinePath := flag.String("baseline", ".github/bench-baseline.txt", "baseline bench output")
	currentPath := flag.String("current", "", "current bench output (required)")
	maxRegress := flag.Float64("max-regress", 0, "fail if any ns/op grows by more than this fraction (0 = report only)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0, "fail if any allocs/op grows by more than this fraction (0 = report only)")
	maxMIPSRegress := flag.Float64("max-mips-regress", 0, "fail if any derived MIPS(ns/op) drops by more than this fraction (0 = report only)")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdelta: -current is required")
		os.Exit(2)
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := parseFile(*currentPath)
	if err != nil {
		fatal(err)
	}
	deriveMIPS(base, cur)

	var names []string
	for name := range cur {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Println("benchdelta: no common benchmarks between baseline and current")
		return
	}

	fmt.Println("| benchmark | metric | baseline | current | delta |")
	fmt.Println("|---|---|---|---|---|")
	failed := false
	for _, name := range names {
		var units []string
		for unit := range cur[name] {
			if _, ok := base[name][unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			b, c := base[name][unit], cur[name][unit]
			delta := "n/a"
			if b != 0 {
				d := (c - b) / b
				delta = fmt.Sprintf("%+.1f%%", 100*d)
				if regressed(unit, d, *maxRegress, *maxAllocRegress, *maxMIPSRegress) {
					delta += " REGRESSION"
					failed = true
				}
			}
			fmt.Printf("| %s | %s | %s | %s | %s |\n",
				name, unit, fmtValue(unit, b), fmtValue(unit, c), delta)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdelta:", err)
	os.Exit(1)
}
