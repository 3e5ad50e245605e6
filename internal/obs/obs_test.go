package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"palmsim/internal/simerr"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	m := r.Max("c")
	h := r.Histogram("d", []uint64{1, 2})
	r.Func("e", func() float64 { return 1 })
	if c != nil || g != nil || m != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	// All nil-receiver operations must be safe no-ops.
	c.Add(5)
	c.Inc()
	g.Set(3)
	g.Add(-1)
	m.Observe(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || m.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry must export nothing, got %q err %v", buf.String(), err)
	}
	r.PublishExpvar("obs-test-nil")
	if expvar.Get("obs-test-nil") != nil {
		t.Fatalf("nil registry must not publish expvar")
	}
}

func TestCounterGaugeMax(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("ops") != c {
		t.Fatalf("re-registering a counter must return the same instance")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
	m := r.Max("worst")
	m.Observe(5)
	m.Observe(3)
	m.Observe(8)
	if m.Value() != 8 {
		t.Fatalf("max = %d, want 8", m.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	m := r.Max("m")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				m.Observe(seed*1000 + uint64(j))
			}
		}(uint64(i))
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
	if m.Value() != 7999 {
		t.Fatalf("concurrent max = %d, want 7999", m.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 100, 500, 1001, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	wantSum := uint64(5 + 10 + 11 + 100 + 500 + 1001 + 1<<40)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
	var samp Sample
	for _, s := range r.Snapshot() {
		if s.Name == "lat" {
			samp = s
		}
	}
	// Cumulative per bound: <=10 -> 2, <=100 -> 4, <=1000 -> 5, +Inf -> 7.
	want := []Bucket{{10, 2}, {100, 4}, {1000, 5}, {0, 7}}
	if len(samp.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", samp.Buckets, want)
	}
	for i, b := range want {
		if samp.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, samp.Buckets[i], b)
		}
	}
	if samp.Value != 7 || samp.Sum != wantSum {
		t.Fatalf("sample value/sum = %v/%d, want 7/%d", samp.Value, samp.Sum, wantSum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bad", []uint64{10, 10})
	if h != nil {
		t.Fatalf("non-increasing bounds must yield the no-op nil histogram")
	}
	h.Observe(5) // nil histogram: must not crash
	if !errors.Is(r.Err(), simerr.ErrMetricConflict) {
		t.Fatalf("Err() = %v, want ErrMetricConflict", r.Err())
	}
}

func TestKindMismatchIsSticky(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	if g := r.Gauge("x"); g != nil {
		t.Fatalf("conflicting kind must yield the no-op nil gauge")
	}
	err := r.Err()
	if !errors.Is(err, simerr.ErrMetricConflict) {
		t.Fatalf("Err() = %v, want ErrMetricConflict", err)
	}
	if !strings.Contains(err.Error(), "counter") || !strings.Contains(err.Error(), "gauge") {
		t.Fatalf("Err() = %q, want both kinds named", err)
	}
	// The winner keeps working, and the first error sticks.
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("original counter broken after conflict")
	}
	r.Histogram("bad", []uint64{3, 2})
	if got := r.Err(); !strings.Contains(got.Error(), "registered as") {
		t.Fatalf("sticky error replaced: %v", got)
	}
}

func TestNilRegistryErr(t *testing.T) {
	var r *Registry
	if r.Err() != nil {
		t.Fatalf("nil registry Err must be nil")
	}
}

func TestFuncRebinds(t *testing.T) {
	r := NewRegistry()
	r.Func("f", func() float64 { return 1 })
	r.Func("f", func() float64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 {
		t.Fatalf("func rebind: snapshot = %+v, want single sample of 2", snap)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz")
	r.Counter("aaa")
	r.Gauge("mmm")
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	want := []string{"aaa", "mmm", "zzz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("emu.instructions").Add(42)
	r.Gauge("sweep.queue_depth").Set(3)
	r.Histogram("hack.latency_us", []uint64{100, 10000}).Observe(150)
	r.Func("bus.reads", func() float64 { return 7 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE palmsim_emu_instructions counter\npalmsim_emu_instructions 42\n",
		"# TYPE palmsim_sweep_queue_depth gauge\npalmsim_sweep_queue_depth 3\n",
		"# TYPE palmsim_hack_latency_us histogram\n",
		`palmsim_hack_latency_us_bucket{le="100"} 0`,
		`palmsim_hack_latency_us_bucket{le="10000"} 1`,
		`palmsim_hack_latency_us_bucket{le="+Inf"} 1`,
		"palmsim_hack_latency_us_sum 150\npalmsim_hack_latency_us_count 1\n",
		"# TYPE palmsim_bus_reads gauge\npalmsim_bus_reads 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(9)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "palmsim_served 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"served"`) {
		t.Fatalf("/debug/vars missing published registry:\n%s", body)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(4)
	m := NewManifest()
	m.Note("trace_bytes", "1234")
	m.Finish(r)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if got.Command == "" || got.Config == nil {
		t.Fatalf("manifest missing command/config: %+v", got)
	}
	if got.Notes["trace_bytes"] != "1234" {
		t.Fatalf("manifest note lost: %+v", got.Notes)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Name != "n" || got.Metrics[0].Value != 4 {
		t.Fatalf("manifest metrics = %+v, want [n=4]", got.Metrics)
	}
	if got.DurationSeconds < 0 {
		t.Fatalf("negative duration %v", got.DurationSeconds)
	}
}

func TestReporterPrintsAndStops(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work")
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	rep := NewReporter(r, w, time.Millisecond)
	rep.Start()
	c.Add(100)
	time.Sleep(20 * time.Millisecond)
	rep.Stop()
	rep.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "work=100") {
		t.Fatalf("reporter output missing counter: %q", out)
	}
	if !strings.Contains(out, "[obs final") {
		t.Fatalf("reporter output missing final line: %q", out)
	}
}

func TestReporterInert(t *testing.T) {
	// Nil registry and zero interval both yield an inert reporter; Stop
	// without Start must not hang either.
	NewReporter(nil, io.Discard, time.Second).Start()
	rep := NewReporter(NewRegistry(), io.Discard, 0)
	rep.Start()
	rep.Stop()
	NewReporter(NewRegistry(), io.Discard, time.Hour).Stop() // never started
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHuman(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {999, "999"}, {10000, "10.0k"}, {2.5e6, "2.50M"},
		{3e9, "3.00G"}, {-10000, "-10.0k"}, {1.5, "1.500"},
	}
	for _, c := range cases {
		if got := human(c.in); got != c.want {
			t.Errorf("human(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPromName(t *testing.T) {
	if got := promName("hack.latency-us/2"); got != "palmsim_hack_latency_us_2" {
		t.Fatalf("promName = %q", got)
	}
}

// BenchmarkNilCounterAdd measures the disabled instrumentation path: one
// nil check, no atomics. This is the cost every hot-path site pays when
// observation is off; the ISSUE budget says total replay overhead <= 2%.
func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench", []uint64{10, 100, 1000, 10000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 0xFFF)
	}
}

// Ensure Flags wiring compiles against a private flag set pattern used in
// tests: Enabled() false by default, Start a no-op, Stop safe.
func TestFlagsDisabledIsNoOp(t *testing.T) {
	f := &Flags{
		metrics:  new(bool),
		addr:     new(string),
		progress: new(time.Duration),
		manifest: new(string),
		out:      io.Discard,
	}
	if f.Enabled() {
		t.Fatalf("zero-value flags must be disabled")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if f.Registry() != nil {
		t.Fatalf("disabled flags must leave registry nil")
	}
	f.Note("k", "v")
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsEnabledLifecycle(t *testing.T) {
	enabled := true
	manifestPath := filepath.Join(t.TempDir(), "run.json")
	var buf bytes.Buffer
	f := &Flags{
		metrics:  &enabled,
		addr:     new(string),
		progress: new(time.Duration),
		manifest: &manifestPath,
		out:      &buf,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	reg := f.Registry()
	if reg == nil {
		t.Fatalf("enabled flags must create a registry")
	}
	reg.Counter("runs").Inc()
	f.Note("verdict", "ok")
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Notes["verdict"] != "ok" {
		t.Fatalf("manifest notes = %+v", m.Notes)
	}
	if !strings.Contains(buf.String(), "final metric snapshot") {
		t.Fatalf("missing snapshot print: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "runs") {
		t.Fatalf("snapshot print missing counter: %q", buf.String())
	}
}

// fakeProfiler fails Start or Stop with the error it holds.
type fakeProfiler struct{ startErr, stopErr error }

func (p fakeProfiler) Start() error { return p.startErr }
func (p fakeProfiler) Stop() error  { return p.stopErr }

// TestFlagsRun pins the exit-code table and the manifest status Run
// derives from a body's error, and what a failing profiler does to both.
func TestFlagsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := simerr.Canceled(ctx, "replay", 7)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		prof   fakeProfiler
		err    error
		code   int
		status string
		stderr string
	}{
		{"ok", fakeProfiler{}, nil, ExitOK, "ok", ""},
		{"usage", fakeProfiler{}, Usage(boom), ExitUsage, "failed", "cmd: boom\n"},
		{"wrapped usage", fakeProfiler{}, fmt.Errorf("parse: %w", Usage(boom)), ExitUsage, "failed", "cmd: parse: boom\n"},
		{"interrupted", fakeProfiler{}, canceled, ExitInterrupted, "interrupted", "cmd: interrupted: " + canceled.Error() + "\n"},
		{"failure", fakeProfiler{}, boom, ExitFailure, "failed", "cmd: boom\n"},
		{"stop fails", fakeProfiler{stopErr: boom}, nil, ExitFailure, "ok", "cmd: boom\n"},
		{"stop fails after usage", fakeProfiler{stopErr: errors.New("flush")}, Usage(boom), ExitUsage, "failed", "cmd: boom\ncmd: flush\n"},
		{"start fails", fakeProfiler{startErr: boom}, nil, ExitUsage, "", "cmd: boom\n"},
	} {
		var stderr bytes.Buffer
		f := &Flags{
			metrics:  new(bool),
			addr:     new(string),
			progress: new(time.Duration),
			manifest: new(string),
			out:      &stderr,
		}
		ran := false
		code := f.Run("cmd", tc.prof, func() error {
			ran = true
			return tc.err
		})
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d", tc.name, code, tc.code)
		}
		if f.status != tc.status {
			t.Errorf("%s: status %q, want %q", tc.name, f.status, tc.status)
		}
		if stderr.String() != tc.stderr {
			t.Errorf("%s: stderr %q, want %q", tc.name, stderr.String(), tc.stderr)
		}
		if want := tc.prof.startErr == nil; ran != want {
			t.Errorf("%s: body ran = %v, want %v", tc.name, ran, want)
		}
	}
}
