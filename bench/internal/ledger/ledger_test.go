package ledger

import (
	"path/filepath"
	"testing"
)

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{2.5, 2.6, 2.7, 2.9, 3.0}, 2.55, 2.95},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := Quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestSummarizeAndAppend(t *testing.T) {
	var m Metric
	m.Summarize([]float64{3, 1, 2})
	if m.Median != 2 || m.Min != 1 || m.Max != 3 || m.N != 3 || m.Samples[0] != 3 {
		t.Fatalf("Summarize = %+v", m)
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	for i := 0; i < 2; i++ {
		if err := Append(path, Run{Workload: "w", Seed: int64(i), Metrics: map[string]Metric{"x": m}}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) != 2 || l.Runs[1].Seed != 1 || l.Runs[0].Metrics["x"].Median != 2 {
		t.Fatalf("round trip = %+v", l)
	}
}
