// Command compare judges a change against its parent from two
// pipeline-benchmark ledgers, one row per workload and end-to-end metric.
// Each side's samples are its runs' medians for that metric (traced runs
// excluded), paired in ledger order, so run both sides the same number of
// times, alternating which goes first.
//
// Verdicts:
//
//   - unresolved: either side's run-to-run spread (interquartile range
//     over median) is wider than the metric's bound, and the new runs
//     neither all beat nor all lose to the old runs;
//   - better: the new side wins at least nine in ten pairs (ties count
//     for neither) and its median moved by more than the old side's
//     interquartile range, or every new run beats every old run;
//   - worse: the new median is worse than the old by more than the bound,
//     or, for an absolute metric such as error_rate, any new run is worse
//     than every old run;
//   - unchanged: otherwise.
//
// Usage:
//
//	go run ./compare [-old-label A] [-new-label B] old.json new.json
//
// The labels select runs when one ledger holds several sets. Exit codes:
// 0 when nothing is worse or unresolved, 1 otherwise, 2 on bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"palmsim/bench/internal/ledger"
)

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// comparison is one metric's judgement with the numbers behind it.
type comparison struct {
	oldMedian, newMedian float64
	change               float64 // relative median change, positive = worse
	oldIQR               float64
	spread               float64 // wider side's IQR over median
	wins, pairs          int
	verdict              verdict
}

// judge compares per-run samples of one metric.
func judge(old, new []float64, m ledger.Metric) comparison {
	// score orients values so that higher is always better.
	score := func(v float64) float64 {
		if m.Better == "higher" {
			return v
		}
		return -v
	}
	var o, n ledger.Metric
	o.Summarize(old)
	n.Summarize(new)
	c := comparison{oldMedian: o.Median, newMedian: n.Median, oldIQR: o.Q3 - o.Q1}
	if o.Median != 0 {
		c.change = (score(o.Median) - score(n.Median)) / math.Abs(o.Median)
	}
	c.spread = math.Max(spread(o), spread(n))
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if score(new[i]) > score(old[i]) {
			c.wins++
		}
	}
	oldBest, oldWorst := math.Max(score(o.Min), score(o.Max)), math.Min(score(o.Min), score(o.Max))
	newBest, newWorst := math.Max(score(n.Min), score(n.Max)), math.Min(score(n.Min), score(n.Max))
	allBetter := len(old) > 0 && len(new) > 0 && newWorst > oldBest
	allWorse := len(old) > 0 && len(new) > 0 && newBest < oldWorst

	switch {
	case len(old) == 0 || len(new) == 0:
		c.verdict = unresolved
	case m.Absolute:
		c.verdict = unchanged
		if newWorst < oldWorst {
			c.verdict = worse
		}
	case allBetter:
		c.verdict = better
	case c.spread > m.Bound:
		c.verdict = unresolved
		if allWorse && c.change > m.Bound {
			c.verdict = worse
		}
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && score(n.Median) > score(o.Median) &&
		math.Abs(n.Median-o.Median) > c.oldIQR:
		c.verdict = better
	case c.change > m.Bound:
		c.verdict = worse
	default:
		c.verdict = unchanged
	}
	return c
}

// spread is a side's interquartile range over its median.
func spread(m ledger.Metric) float64 {
	iqr := m.Q3 - m.Q1
	switch {
	case iqr == 0:
		return 0
	case m.Median == 0:
		return math.Inf(1)
	}
	return iqr / math.Abs(m.Median)
}

// samples collects, per workload and end-to-end metric, the medians of the
// untraced runs carrying label (any label when empty).
func samples(l *ledger.Ledger, label string) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range l.Runs {
		if r.Traced || (label != "" && r.Label != label) {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			if m.EndToEnd {
				out[r.Workload][name] = append(out[r.Workload][name], m.Median)
			}
		}
	}
	return out
}

// metricDefs returns each end-to-end metric's definition as the old
// ledger recorded it.
func metricDefs(l *ledger.Ledger) map[string]ledger.Metric {
	defs := map[string]ledger.Metric{}
	for _, r := range l.Runs {
		for name, m := range r.Metrics {
			if m.EndToEnd {
				defs[name] = m
			}
		}
	}
	return defs
}

// compare writes one row per workload and metric and reports whether
// every row is better or unchanged.
func compare(w io.Writer, oldL, newL *ledger.Ledger, oldLabel, newLabel string) bool {
	defs := metricDefs(oldL)
	oldS, newS := samples(oldL, oldLabel), samples(newL, newLabel)
	var workloads []string
	for wl := range oldS {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tchange\told IQR\tspread\tbound\twins\tverdict")
	ok := true
	for _, wl := range workloads {
		var names []string
		for name := range oldS[wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := defs[name]
			c := judge(oldS[wl][name], newS[wl][name], m)
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.Absolute {
				bound = "any rise"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.4g\t%.1f%%\t%s\t%d/%d\t%s\n",
				wl, name, m.Unit, c.oldMedian, c.newMedian, 100*c.change, c.oldIQR, 100*c.spread, bound,
				c.wins, c.pairs, c.verdict)
			ok = ok && (c.verdict == better || c.verdict == unchanged)
		}
	}
	tw.Flush()
	return ok
}

func main() {
	oldLabel := flag.String("old-label", "", "compare only the old ledger's runs with this label")
	newLabel := flag.String("new-label", "", "compare only the new ledger's runs with this label")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-old-label A] [-new-label B] old.json new.json")
		os.Exit(2)
	}
	oldL, err := ledger.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	newL, err := ledger.Load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, oldL, newL, *oldLabel, *newLabel) {
		os.Exit(1)
	}
}
