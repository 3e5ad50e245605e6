// Package ledger is the pipeline benchmark's machine-readable record. A
// ledger file holds one entry per benchmark run; each entry carries every
// metric summarized as median, quartiles, min, max and sample count, the
// raw samples behind the summary, and the host, toolchain and commit that
// produced it. bench/pipeline appends runs to a ledger; bench/compare
// reads two ledgers and judges the difference.
package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// Ledger is the on-disk document.
type Ledger struct {
	Runs []Run `json:"runs"`
}

// Run is one invocation of the pipeline benchmark on one workload.
type Run struct {
	// Label names the set of runs this one belongs to, so one ledger can
	// hold several sets (for example two sets of the same commit).
	Label    string `json:"label,omitempty"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Traced runs record per-layer spans; their timings include the
	// tracing overhead and are not compared end to end.
	Traced bool `json:"traced"`

	Host       string `json:"host"`
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
	Modified   bool   `json:"modified,omitempty"`
	Time       string `json:"time"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one measured quantity with its summary and raw samples.
type Metric struct {
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// EndToEnd marks the metrics a user of the simulator sees; the rest
	// are per-layer explanations.
	EndToEnd bool `json:"end_to_end,omitempty"`
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression. Absolute metrics
	// regress on any increase instead.
	Bound    float64 `json:"bound,omitempty"`
	Absolute bool    `json:"absolute,omitempty"`

	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// Summarize fills the summary fields of m from samples, which it keeps.
func (m *Metric) Summarize(samples []float64) {
	m.Samples = samples
	m.N = len(samples)
	m.Median, m.Q1, m.Q3, m.Min, m.Max = 0, 0, 0, 0, 0
	if len(samples) == 0 {
		return
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m.Min, m.Max = s[0], s[len(s)-1]
	m.Median = Median(s)
	m.Q1, m.Q3 = Quartiles(s)
}

// Median returns the median of sorted.
func Median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quartiles returns the first and third quartiles of sorted by the method
// Python's statistics.quantiles(data, n=4) uses (its default "exclusive"
// method), so the benchmark and external checks agree on spreads. A single
// sample is its own quartiles.
func Quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// Load reads a ledger file.
func Load(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	return &l, nil
}

// Append adds r to the ledger at path, creating the file if needed.
func Append(path string, r Run) error {
	l, err := Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &Ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, r)
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
