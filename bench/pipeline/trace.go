package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"palmsim/internal/sweep"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark brackets its own calls to each package's public
// functions, so the simulator runs unmodified.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for an iteration's root span
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"` // since the tracer was created
	EndNS     int64  `json:"end_ns"`
	Iteration int    `json:"iteration"` // -1 for the warm-up
	Workload  string `json:"workload"`
	Session   string `json:"session,omitempty"`
}

// layerTime accumulates one span name's totals over an iteration. self
// is duration minus the time child spans cover; for a sweep span the
// children are its decode calls, which overlap the sweep workers, so the
// sweep's self time is approximate.
type layerTime struct {
	dur, self, alloc float64 // seconds, seconds, bytes
}

type frame struct {
	id     int
	start  time.Time
	allocs uint64
	child  time.Duration
}

// tracer keeps spans in memory until the run ends and aggregates them per
// iteration. Every method is a no-op on a nil *tracer, so untraced
// iterations pay one nil check per call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []frame
	iter     int
	session  string

	layers  map[string]*layerTime
	counts  map[string]float64
	sample  []metrics.Sample
	gcStart runtime.MemStats
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       time.Now(),
		sample:   []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocBytes is the process's cumulative heap allocation; runtime/metrics
// reads it without stopping the world.
func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin resets the per-iteration aggregates and opens the root span.
func (t *tracer) begin(iter int) {
	if t == nil {
		return
	}
	t.iter = iter
	t.session = ""
	t.layers = map[string]*layerTime{}
	t.counts = map[string]float64{}
	runtime.ReadMemStats(&t.gcStart)
	t.start("pipeline")
}

// end closes the root span and returns the iteration's per-layer values.
func (t *tracer) end() map[string]float64 {
	if t == nil {
		return nil
	}
	for len(t.open) > 0 { // spans an error path left open
		t.finish()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.counts["go.gc_cycles"] = float64(ms.NumGC - t.gcStart.NumGC)
	t.counts["go.gc_pause_s"] = float64(ms.PauseTotalNs-t.gcStart.PauseTotalNs) / 1e9
	return layerValues(t.layers, t.counts)
}

func (t *tracer) setSession(name string) {
	if t != nil {
		t.session = name
	}
}

// start opens a span as a child of the innermost open span.
func (t *tracer) start(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	now := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now.Sub(t.t0).Nanoseconds(),
		Iteration: t.iter, Workload: t.workload, Session: t.session})
	t.open = append(t.open, frame{id: id, start: now, allocs: t.allocBytes()})
}

// finish closes the innermost open span.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	f := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	now := time.Now()
	d := now.Sub(f.start)
	sp := &t.spans[f.id]
	sp.EndNS = now.Sub(t.t0).Nanoseconds()
	lt := t.layers[sp.Name]
	if lt == nil {
		lt = &layerTime{}
		t.layers[sp.Name] = lt
	}
	lt.dur += d.Seconds()
	lt.self += (d - f.child).Seconds()
	lt.alloc += float64(t.allocBytes() - f.allocs)
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// count adds v to a per-iteration counter.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedSource wraps a trace source so each NextChunk call is a
// dtrace.decode span. It adds no buffering and passes every reference
// through unchanged.
type timedSource struct {
	src sweep.Source
	tr  *tracer
}

func (s *timedSource) NextChunk(buf []uint32) (int, error) {
	s.tr.start("dtrace.decode")
	n, err := s.src.NextChunk(buf)
	s.tr.finish()
	s.tr.count("dtrace.decode_refs", float64(n))
	return n, err
}

// timedKindedSource is timedSource over a source that also carries access
// kinds; the sweep engine requires one for write-policy sweeps.
type timedKindedSource struct {
	timedSource
	ks sweep.KindedSource
}

func (s *timedKindedSource) NextChunkKinded(refs []uint32, kinds []uint8) (int, error) {
	s.tr.start("dtrace.decode")
	n, err := s.ks.NextChunkKinded(refs, kinds)
	s.tr.finish()
	s.tr.count("dtrace.decode_refs", float64(n))
	return n, err
}

// wrap returns src timed by the tracer. The wrapper exposes
// NextChunkKinded only when src does, so the sweep engine sees the same
// capabilities with and without tracing; a nil tracer returns src itself.
func (t *tracer) wrap(src sweep.Source) sweep.Source {
	if t == nil {
		return src
	}
	ts := timedSource{src: src, tr: t}
	if ks, ok := src.(sweep.KindedSource); ok {
		return &timedKindedSource{timedSource: ts, ks: ks}
	}
	return &ts
}
