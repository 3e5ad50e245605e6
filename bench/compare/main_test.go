package main

import (
	"bytes"
	"strings"
	"testing"

	"palmsim/bench/internal/ledger"
)

var (
	seconds   = ledger.Metric{Unit: "s", Better: "lower", Bound: 0.10, EndToEnd: true}
	rate      = ledger.Metric{Unit: "1/s", Better: "higher", Bound: 0.10, EndToEnd: true}
	errorRate = ledger.Metric{Unit: "ratio", Better: "lower", Absolute: true, EndToEnd: true}
)

// scale returns base with every sample multiplied by f.
func scale(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

// steady is ten runs with a 2% spread around 10.
var steady = []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.1, 9.9, 10.0, 10.02, 9.98}

func TestJudge(t *testing.T) {
	noisy := []float64{8, 12, 9, 11, 10, 13, 7, 10, 12, 8} // ~30% spread
	for _, tc := range []struct {
		name     string
		old, new []float64
		m        ledger.Metric
		want     verdict
	}{
		{"same code", steady, []float64{10.02, 9.97, 10.08, 9.93, 10.0, 10.04, 9.96, 10.01, 9.99, 10.06}, seconds, unchanged},
		{"20% faster", steady, scale(steady, 0.8), seconds, better},
		{"30% slower", steady, scale(steady, 1.3), seconds, worse},
		{"5% slower is inside the bound", steady, scale(steady, 1.05), seconds, unchanged},
		{"higher-is-better rate gain", steady, scale(steady, 1.2), rate, better},
		{"higher-is-better rate loss", steady, scale(steady, 0.7), rate, worse},
		{"spread wider than the bound", noisy, scale(noisy, 1.02), seconds, unresolved},
		{"wide spread but every new run better", noisy, scale(noisy, 0.5), seconds, better},
		{"wide spread, every run and the median worse", noisy, scale(noisy, 2), seconds, worse},
		{"missing new side", steady, nil, seconds, unresolved},
		{"error rate rises", []float64{0, 0, 0}, []float64{0, 0.1, 0}, errorRate, worse},
		{"error rate holds", []float64{0, 0, 0}, []float64{0, 0, 0}, errorRate, unchanged},
	} {
		if got := judge(tc.old, tc.new, tc.m).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, got, tc.want, judge(tc.old, tc.new, tc.m))
		}
	}
}

// TestGainNeedsNineWinsInTen: a median shift beyond the parent's IQR is
// not a gain when the change wins fewer than nine of ten pairs.
func TestGainNeedsNineWinsInTen(t *testing.T) {
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10.2}
	new := []float64{9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 10.1, 10.3}
	c := judge(old, new, seconds)
	if c.wins != 8 || c.verdict != unchanged {
		t.Fatalf("wins %d verdict %s, want 8 wins and unchanged", c.wins, c.verdict)
	}
	new[8] = 9.9
	if c := judge(old, new, seconds); c.wins != 9 || c.verdict != better {
		t.Fatalf("wins %d verdict %s, want 9 wins and better", c.wins, c.verdict)
	}
}

func TestCompareLedgers(t *testing.T) {
	run := func(label, workload string, secs, errs float64) ledger.Run {
		s, e := seconds, errorRate
		s.Summarize([]float64{secs})
		e.Summarize([]float64{errs})
		return ledger.Run{Label: label, Workload: workload, Metrics: map[string]ledger.Metric{"pipeline_s": s, "error_rate": e}}
	}
	l := &ledger.Ledger{}
	for i, v := range steady {
		l.Runs = append(l.Runs, run("A", "w", v, 0), run("B", "w", steady[len(steady)-1-i], 0), run("C", "w", 1.5*v, 0))
	}
	l.Runs = append(l.Runs, ledger.Run{Label: "A", Workload: "w", Traced: true, Metrics: map[string]ledger.Metric{}})
	var out bytes.Buffer
	if !compare(&out, l, l, "A", "B") {
		t.Errorf("A vs B should all be unchanged:\n%s", out.String())
	}
	if strings.Count(out.String(), "unchanged") != 2 {
		t.Errorf("want two unchanged rows:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, l, l, "A", "C") || !strings.Contains(out.String(), "worse") {
		t.Errorf("A vs C should report pipeline_s worse:\n%s", out.String())
	}
}
