// Package obs is the simulator's low-overhead observability layer: atomic
// counters, gauges and fixed-bucket histograms behind a registry whose nil
// value is a complete no-op. Instrumented code holds *Counter (etc.)
// fields obtained from a possibly-nil *Registry; when observation is
// disabled every field is nil and each instrumentation site costs exactly
// one predicated load (the nil receiver check), no allocation and no
// atomic traffic. The paper's methodology depends on being able to *see*
// that replay stays synchronous with the tick counter (§2.2) and that
// instrumentation overhead stays within the §2.1 budget; this package is
// the substrate those observations ride on, in the spirit of NISTT's
// non-intrusive tracing hooks.
//
// Snapshots are consistent-enough point-in-time reads (each metric is read
// atomically; the set is not globally fenced, which is fine for progress
// lines and the end-of-run outputs). Metrics leave the process in three
// ways, all written to stderr or disk: the -metrics snapshot table that
// Flags.Stop prints, the periodic progress reporter in progress.go and the
// JSON run manifest in manifest.go. The shared CLI flag wiring is in
// flags.go.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"palmsim/internal/simerr"
)

// Counter is a monotonically increasing uint64. All methods are safe on a
// nil receiver (they no-op / return zero), which is the disabled state.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level (queue depths, in-flight work, byte
// sizes). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (zero on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max tracks the maximum observed uint64 (e.g. worst-case hack latency).
// Nil-safe.
type Max struct {
	v atomic.Uint64
}

// Observe folds one observation into the running maximum.
func (m *Max) Observe(v uint64) {
	if m == nil {
		return
	}
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed so far (zero on a nil Max).
func (m *Max) Value() uint64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// Histogram counts observations into a fixed, strictly increasing bucket
// layout chosen at registration (no dynamic resizing, no allocation on
// Observe). Bucket i counts observations <= Bounds[i]; observations above
// the last bound land in the implicit overflow bucket. Nil-safe.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (zero on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// kind tags a registered metric for snapshots.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindMax
	kindHistogram
	kindFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindMax:
		return "max"
	case kindHistogram:
		return "histogram"
	default:
		return "func"
	}
}

// entry is one registered metric.
type entry struct {
	name string
	kind kind
	c    *Counter
	g    *Gauge
	m    *Max
	h    *Histogram
	fn   func() float64
}

// Registry names and owns a set of metrics. The nil *Registry is the
// disabled state: every constructor returns a nil metric (whose methods
// no-op) and Snapshot returns nothing, so instrumented code never branches
// on "is observation on" — it just uses whatever the registry handed out.
//
// Constructors are idempotent per name: asking for the same counter twice
// returns the same counter, so independent subsystems can share a metric.
// Func is the exception — re-registering a func rebinds it (last wins),
// because funcs capture the object they read (e.g. the current machine)
// and a fresh machine must supersede a retired one.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
	err     error // first registration conflict, sticky
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookup returns the entry for name, creating it with mk when absent.
// A kind mismatch on an existing name — a disagreement two subsystems
// can only commit by both claiming a metric — returns nil (the caller
// hands out the no-op nil metric) and records the conflict in the
// registry's sticky Err, which the CLIs surface at shutdown. mk may
// return (nil, err) to report a construction error the same way.
func (r *Registry) lookup(name string, k kind, mk func() (*entry, error)) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != k {
			r.recordConflict(fmt.Errorf("metric %s registered as %s and %s", name, e.kind, k))
			return nil
		}
		return e
	}
	e, err := mk()
	if err != nil {
		r.recordConflict(err)
		return nil
	}
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// recordConflict keeps the first registration error. Callers hold r.mu.
func (r *Registry) recordConflict(cause error) {
	if r.err == nil {
		r.err = simerr.New(simerr.ErrMetricConflict, "obs: register", cause)
	}
}

// Err returns the first registration conflict as a
// simerr.ErrMetricConflict carrier, or nil. Conflicting registrations
// do not disturb the running simulation — the loser gets a no-op
// metric — but the conflict is worth surfacing, so the CLI flag
// wiring checks Err at shutdown. Nil-safe.
func (r *Registry) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Counter returns the named counter, creating it if needed. Returns nil
// (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindCounter, func() (*entry, error) {
		return &entry{name: name, kind: kindCounter, c: &Counter{}}, nil
	})
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge returns the named gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindGauge, func() (*entry, error) {
		return &entry{name: name, kind: kindGauge, g: &Gauge{}}, nil
	})
	if e == nil {
		return nil
	}
	return e.g
}

// Max returns the named maximum tracker (nil on a nil registry).
func (r *Registry) Max(name string) *Max {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindMax, func() (*entry, error) {
		return &entry{name: name, kind: kindMax, m: &Max{}}, nil
	})
	if e == nil {
		return nil
	}
	return e.m
}

// Histogram returns the named histogram with the given strictly increasing
// bucket upper bounds (nil on a nil registry). The layout is fixed at
// first registration; later calls with a different layout get the
// original histogram (idempotence wins — layouts are code constants).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindHistogram, func() (*entry, error) {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				return nil, fmt.Errorf("histogram %s bounds not strictly increasing", name)
			}
		}
		b := append([]uint64(nil), bounds...)
		return &entry{name: name, kind: kindHistogram, h: &Histogram{
			bounds:  b,
			buckets: make([]atomic.Uint64, len(b)+1),
		}}, nil
	})
	if e == nil {
		return nil
	}
	return e.h
}

// Func registers (or rebinds) a polled metric: fn is called at snapshot
// time. Funcs are how already-counted subsystem statistics (bus.Stats,
// emu.Stats, the opcode histogram) become visible with zero added
// hot-path cost. No-op on a nil registry.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	e := r.lookup(name, kindFunc, func() (*entry, error) {
		return &entry{name: name, kind: kindFunc}, nil
	})
	if e == nil {
		return
	}
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations <= Le (Le == 0 with Cumulative set marks the +Inf bucket).
type Bucket struct {
	Le         uint64 `json:"le"`
	Cumulative uint64 `json:"cumulative"`
}

// Sample is one metric's point-in-time value.
type Sample struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Value is the counter/gauge/max/func reading; for histograms it is
	// the observation count.
	Value float64 `json:"value"`
	// Sum and Buckets are histogram-only.
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads every registered metric, sorted by name. Nil registries
// return nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	// Funcs rebind under the lock; capture them here so calling outside
	// the lock (they may be slow or re-enter the registry) stays race-free.
	fns := make([]func() float64, len(entries))
	for i, e := range entries {
		fns[i] = e.fn
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(entries))
	for i, e := range entries {
		s := Sample{Name: e.name, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			s.Value = float64(e.c.Value())
		case kindGauge:
			s.Value = float64(e.g.Value())
		case kindMax:
			s.Value = float64(e.m.Value())
		case kindHistogram:
			var cum uint64
			s.Buckets = make([]Bucket, 0, len(e.h.bounds)+1)
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				s.Buckets = append(s.Buckets, Bucket{Le: b, Cumulative: cum})
			}
			cum += e.h.buckets[len(e.h.bounds)].Load()
			s.Buckets = append(s.Buckets, Bucket{Le: 0, Cumulative: cum})
			s.Value = float64(e.h.Count())
			s.Sum = e.h.Sum()
		case kindFunc:
			if fns[i] != nil {
				s.Value = fns[i]()
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
