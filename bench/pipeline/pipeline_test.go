package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/gremlin"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke-case-study.json")

// benchSession is bench_test.go's compact session, the smoke tests' input.
func benchSession() user.Session {
	return user.Session{Name: "bench", Seed: 77, Script: func(b *user.Builder) {
		b.IdleSeconds(1)
		b.WriteMemo("benchmark memo entry")
		b.IdleSeconds(5)
		b.PlayPuzzle(6)
		b.IdleSeconds(2)
		b.BrowseAddresses(2)
		b.Notify(1)
	}}
}

// smoke runs one workload's set-up and a single iteration on small
// inputs and fails on any error or broken invariant.
func smoke(t *testing.T, name string, ss []user.Session, traced bool) (*digest, map[string]float64) {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	in, err := w.setup(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer(name)
	}
	it := runIteration(context.Background(), w, in, tr, newHostSpeed(), 0)
	if probs := it.check(nil); len(probs) > 0 {
		t.Fatalf("%s: %q", name, probs)
	}
	return it.digest, it.layers
}

func TestCaseStudySmoke(t *testing.T) {
	d, layers := smoke(t, "case-study", []user.Session{benchSession()}, true)
	if *update {
		data, err := d.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/smoke-case-study.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		return // the binary embeds the previous golden
	}
	want, err := golden("smoke-case-study")
	if err != nil || want == nil {
		t.Fatalf("golden: %v, %v (run go test -update to create it)", want, err)
	}
	if diffs := diffDigest(d, want); len(diffs) > 0 {
		t.Errorf("digest differs from testdata/smoke-case-study.json:\n%q", diffs)
	}
	for _, name := range []string{"sim.replay_s", "sim.traced_mips", "dtrace.encode_s", "dtrace.decode_s",
		"sweep.lru56_s", "sweep.hier16_s", "report.s", "sweep.units"} {
		if layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, layers[name])
		}
	}
	if layers["sweep.opt_s"] != 0 || layers["validate.correlate_s"] != 0 {
		t.Errorf("case-study reported layers it does not call: %v", layers)
	}
}

func TestTraceCaptureSmoke(t *testing.T) {
	storm := gremlin.Session(gremlin.Config{Seed: 20260808, Events: 200, MaxThinkTicks: 20})
	d, _ := smoke(t, "trace-capture", []user.Session{storm}, false)
	c := d.Sessions[0].Correlation
	if c["log.ok"] != "true" || c["state.ok"] != "true" || len(d.Sessions[0].Results) != 0 {
		t.Errorf("trace-capture digest = %+v", d.Sessions[0])
	}
}

func TestDesignSpaceSmoke(t *testing.T) {
	d, layers := smoke(t, "design-space", []user.Session{benchSession()}, true)
	if len(d.Sessions[0].Results) != len(designPlans) {
		t.Errorf("results for %d plans, want %d", len(d.Sessions[0].Results), len(designPlans))
	}
	for _, p := range designPlans {
		if layers["sweep."+p.name+"_s"] <= 0 {
			t.Errorf("sweep.%s_s = %v, want > 0", p.name, layers["sweep."+p.name+"_s"])
		}
	}
	if layers["sim.replay_s"] != 0 {
		t.Errorf("design-space timed a replay: %v", layers["sim.replay_s"])
	}
}

// TestTimingSourceBitIdentical: a write-back sweep through the timing
// wrapper returns exactly what the same sweep returns without it, and the
// wrapper offers the kinded interface only over a kinded source.
func TestTimingSourceBitIdentical(t *testing.T) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 200_000
	trace := dtrace.Generate(cfg)
	kinds := make([]uint8, len(trace))
	for i := range kinds {
		kinds[i] = uint8(i * 7 % 3) // fetch, read, write
	}
	packed, err := dtrace.PackTraceIndexed(trace, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *dtrace.PackedSource {
		src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	cfgs := policyGrid(cache.LRU, cache.WriteBack)
	plain, err := sweep.Run(context.Background(), cfgs, open(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	tr.begin(0)
	timed, err := sweep.Run(context.Background(), cfgs, tr.wrap(open()), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	layers := tr.end()
	if !reflect.DeepEqual(plain, timed) {
		t.Fatal("sweep through the timing wrapper differs from the plain sweep")
	}
	if plain[0].Writebacks == 0 || layers["dtrace.decode_s"] <= 0 {
		t.Errorf("writebacks %d, decode %v s: want both > 0", plain[0].Writebacks, layers["dtrace.decode_s"])
	}
	if _, ok := tr.wrap(open()).(sweep.KindedSource); !ok {
		t.Error("wrapped PackedSource lost NextChunkKinded")
	}
	if _, ok := tr.wrap(sweep.NewSliceSource(trace)).(sweep.KindedSource); ok {
		t.Error("wrapped address-only source claims NextChunkKinded")
	}
}

// TestCheckEncoded: an encoding is decoded in full until one passes, and
// an encoding with other bytes is decoded in full again.
func TestCheckEncoded(t *testing.T) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 10_000
	trace := dtrace.Generate(cfg)
	packed, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := dtrace.PackTraceIndexed(trace[1:], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &input{name: "s"}
	if s.checkEncoded(packed, trace[1:], nil) == "" {
		t.Error("encoding of another stream passed")
	}
	if bad := s.checkEncoded(packed, trace, nil); bad != "" {
		t.Errorf("valid encoding failed: %s", bad)
	}
	if s.checkEncoded(other, trace, nil) == "" {
		t.Error("changed encoding passed without a full decode")
	}
}

// TestHostSpeedScale: without samples a wall second is a reference
// second; with them the scale is the reference kernel time over the mean
// sampled one.
func TestHostSpeedScale(t *testing.T) {
	var none *hostSpeed
	none.sample()
	if none.scale() != 1 || newHostSpeed().scale() != 1 {
		t.Error("scale without samples is not 1")
	}
	h := newHostSpeed()
	h.sample()
	h.sample()
	if k := h.kernelSeconds(); k <= 0 || h.scale() != refKernelSeconds/k {
		t.Errorf("kernel %v s, scale %v: want scale = %v / kernel", k, h.scale(), refKernelSeconds)
	}
	h.reset()
	if h.kernelSeconds() != 0 {
		t.Error("reset kept samples")
	}
}

func TestInvariantChecks(t *testing.T) {
	small := cache.Config{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: cache.LRU}
	big := cache.Config{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU} // same 64 sets
	ok := []cache.Result{{Config: small, Accesses: 100, Misses: 10}, {Config: big, Accesses: 100, Misses: 8}}
	if bad := append(checkAccesses("p", 100, ok), checkInclusion("p", ok)...); len(bad) > 0 {
		t.Errorf("valid results flagged: %q", bad)
	}
	broken := []cache.Result{{Config: small, Accesses: 0, Misses: 10}, {Config: big, Accesses: 100, Misses: 12}}
	if len(checkAccesses("p", 100, broken)) != 1 || len(checkInclusion("p", broken)) != 1 {
		t.Error("zero-access result or growing LRU misses not flagged")
	}

	base := digest{Sessions: []sessionDigest{{Name: "s", Refs: 5, Stats: map[string]string{"a": "1"},
		TraceFNV: "x", Results: map[string]string{"lru56": "h"}}}}
	changed := digest{Sessions: []sessionDigest{base.Sessions[0].clone()}}
	changed.Sessions[0].Results["lru56"] = "other"
	if len(diffDigest(&base, &base)) != 0 || len(diffDigest(&changed, &base)) != 1 {
		t.Error("diffDigest missed a changed result hash or flagged an identical digest")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the repository's benchmark
// declaration and this command's metric and workload tables in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric
		PerLayer  []metric
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct{ Name, Why string }{w.name, w.why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, metric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{d.name, d.unit, d.better, 0})
	}
	if !reflect.DeepEqual(b.Workloads, want.Workloads) || !reflect.DeepEqual(b.EndToEnd, want.EndToEnd) ||
		!reflect.DeepEqual(b.PerLayer, want.PerLayer) {
		t.Errorf("BENCHMARK.json and the metric tables differ:\nfile: %+v\ncode: %+v", b, want)
	}
}
