// Package sweep runs cache-configuration sweeps concurrently over a
// streaming memory-reference trace. The paper's §4 case study simulates
// 56 configurations over traces of hundreds of millions of references;
// the sweep is embarrassingly parallel across simulation units, so a
// single trace producer publishes fixed-size reference chunks to a pool
// of workers, each worker drives its shard of units, and results are
// collected in configuration order regardless of completion order. The
// worker count is a count, not a code path: one worker runs the same
// producer and queue as eight, and every consumer of the trace reads it
// through the one readChunk step.
//
// There is one sweep path. A single-level configuration is a one-level
// cache.Hierarchy, so Run, RunTrace, Plan and Describe wrap their
// configurations with cache.Single and go through the hierarchy planner
// and run loop in hierarchy.go; only the result shape differs.
//
// Two engines provide the units. The direct engine simulates one
// cache.Cache per configuration — 56 independent caches. The stack
// engine (internal/cache/stack) exploits the LRU inclusion property to
// collapse all configurations sharing a (line size, set count) geometry
// into one single-pass refinement, and advances each line size's
// refinements with one walk that stops where a reference is already MRU
// — 20 refinements in 2 units for the paper sweep, so its LRU grid
// spreads over at most two workers. It serves FIFO and PLRU through
// single-pass per-line-size families, and falls back to direct
// simulation only for Random (private PRNG state).
// OPT (Belady) configurations are served by internal/cache/opt under
// either engine: the run materializes the trace, computes the
// per-line-size next-use annotation, and then streams the buffered trace
// through the normal fan-out, so cancellation composes with OPT
// unchanged. Every unit observes the full trace in order, read from one
// Source by one producer, so both engines produce results
// bit-identical to the serial cache.Sweep loop for any worker count —
// determinism is an invariant here, not a best effort.
//
// Write-policy accounting needs to know which references are writes, so
// when any configuration sets a write policy the sweep runs in kinded
// mode: the source must implement KindedSource and chunks carry a
// parallel kind byte per reference. Every unit has the one entry point
// AccessAllKinded, where nil kinds means an address-only chunk; the
// single-level units then run their untouched address-only loops.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/cache/stack"
	"palmsim/internal/obs"
	"palmsim/internal/simerr"
)

// Source streams a reference trace in chunks, so traces never need to be
// fully materialized. NextChunk fills buf with up to len(buf) references
// and returns how many it wrote. End of trace is signalled either by
// n == 0 with a nil error, or by err == io.EOF (with or without final
// references in the same call) — consumers honor both, and any other
// error aborts the sweep. Implementations include SliceSource here,
// dtrace.Stream (the synthetic desktop generator), dtrace.PackedSource
// (the packed binary trace format) and the din reader in internal/exp.
type Source interface {
	NextChunk(buf []uint32) (n int, err error)
}

// SliceSource adapts a fully materialized trace (e.g. one collected by a
// replay) to the Source interface.
type SliceSource struct {
	trace []uint32
	pos   int
}

// NewSliceSource wraps an in-memory trace.
func NewSliceSource(trace []uint32) *SliceSource {
	return &SliceSource{trace: trace}
}

// NextChunk copies the next run of references into buf. At the end of
// the trace — including a zero-length trace — it returns (0, nil) on
// every call, never an error.
func (s *SliceSource) NextChunk(buf []uint32) (int, error) {
	n := copy(buf, s.trace[s.pos:])
	s.pos += n
	return n, nil
}

// KindedSource is a Source that also knows each reference's access kind
// (cache.KindFetch/KindRead/KindWrite). Both methods advance the same
// stream position. Write-policy sweeps require a KindedSource;
// address-only sources are rejected with a clear error rather than
// silently treating every reference as a read.
type KindedSource interface {
	Source
	// NextChunkKinded fills refs and kinds in lockstep with up to
	// min(len(refs), len(kinds)) references and returns how many it
	// wrote. End-of-trace signalling matches NextChunk.
	NextChunkKinded(refs []uint32, kinds []uint8) (n int, err error)
}

// KindedSliceSource adapts a fully materialized trace with per-reference
// access kinds to the KindedSource interface.
type KindedSliceSource struct {
	trace []uint32
	kinds []uint8
	pos   int
}

// NewKindedSliceSource wraps an in-memory trace and its parallel kind
// array. NextChunk serves the whole trace whatever the kinds hold (nil
// kinds suit an address-only sweep); NextChunkKinded fails with
// simerr.ErrCorruptTrace once the kinds run out before the trace does.
func NewKindedSliceSource(trace []uint32, kinds []uint8) *KindedSliceSource {
	return &KindedSliceSource{trace: trace, kinds: kinds}
}

// NextChunk copies addresses only, advancing the shared position.
func (s *KindedSliceSource) NextChunk(buf []uint32) (int, error) {
	n := copy(buf, s.trace[s.pos:])
	s.pos += n
	return n, nil
}

// NextChunkKinded copies the next run of (address, kind) pairs.
func (s *KindedSliceSource) NextChunkKinded(refs []uint32, kinds []uint8) (int, error) {
	if len(kinds) < len(refs) {
		refs = refs[:len(kinds)]
	}
	n := copy(refs, s.trace[s.pos:])
	if err := s.checkKinds(s.pos + n); err != nil {
		return 0, err
	}
	copy(kinds[:n], s.kinds[s.pos:s.pos+n])
	s.pos += n
	return n, nil
}

// checkKinds reports a kind array too short to cover references [0, end).
func (s *KindedSliceSource) checkKinds(end int) error {
	if end <= len(s.kinds) {
		return nil
	}
	return simerr.CorruptTrace("sweep: kinded slice source", int64(len(s.kinds)),
		fmt.Errorf("%d access kinds for a %d-reference trace", len(s.kinds), len(s.trace)))
}

// DefaultChunkRefs is the number of references per published chunk
// (256 KiB of addresses): large enough to amortize channel traffic,
// small enough to keep every shard's working chunk in cache.
const DefaultChunkRefs = 1 << 16

// queueDepth bounds the per-worker channel, which in turn bounds the
// memory high-water mark to O(workers · queueDepth · chunk) regardless of
// trace length.
const queueDepth = 2

// Engine selects the simulation algorithm.
type Engine int

const (
	// EngineAuto (the zero value) selects the stack engine: the fastest
	// choice, and bit-identical to direct simulation by construction.
	EngineAuto Engine = iota
	// EngineDirect simulates every configuration with its own
	// cache.Cache — the reference algorithm, kept for cross-validation
	// and A/B benchmarking.
	EngineDirect
	// EngineStack runs the single-pass all-associativity engine for LRU
	// configurations and falls back to direct simulation per non-LRU
	// configuration.
	EngineStack
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDirect:
		return "direct"
	case EngineStack:
		return "stack"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Options tunes the engine.
type Options struct {
	// Workers is the number of concurrent simulation workers. Zero or
	// negative selects GOMAXPROCS. Every count runs the same fan-out and
	// produces exactly the same results as the serial cache.Sweep loop.
	// Workers above the engine's unit count are clamped, to one worker
	// for a plan with no units.
	Workers int
	// ChunkRefs is the number of references per chunk; zero or negative
	// selects DefaultChunkRefs.
	ChunkRefs int
	// Engine selects the simulation algorithm; the zero value
	// (EngineAuto) selects the single-pass stack engine.
	Engine Engine
	// Obs, when non-nil, receives sweep progress counters (chunks, refs,
	// per-worker completions, queue depth) and post-run cache aggregates.
	// Nil (the default) adds no allocations and no atomic traffic.
	Obs *obs.Registry
}

func (o Options) workers(nunits int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nunits {
		w = nunits
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) chunkRefs() int {
	if o.ChunkRefs <= 0 {
		return DefaultChunkRefs
	}
	return o.ChunkRefs
}

func (o Options) engine() Engine {
	if o.Engine == EngineAuto {
		return EngineStack
	}
	return o.Engine
}

// unit is one independently advanceable simulation shard: a direct
// cache.Cache, a stack-engine LRU walk or family, an OPT simulator or
// family, a fused hierarchy, or a shared-L1 group. kinds is nil on
// address-only sweeps and exactly parallel to refs on kinded ones. No
// unit is ever touched by two goroutines, and each observes the complete
// trace in order.
type unit interface {
	AccessAllKinded(refs []uint32, kinds []uint8)
}

// PlanInfo summarizes how a configuration set maps onto engine units —
// in particular, which configurations fall back to per-config direct
// simulation inside the stack engine (satellite observability: the
// fallback is visible in sweep metrics and run manifests, never
// silent).
type PlanInfo struct {
	// Engine is the resolved engine (never EngineAuto).
	Engine Engine
	// Configs is the number of swept configurations (or hierarchies).
	Configs int
	// Units is the number of independently advanceable shards.
	Units int
	// FallbackConfigs counts configurations the stack engine serves by
	// per-config direct simulation because no single-pass algorithm
	// exists for their policy (currently: Random). Always zero under
	// EngineDirect, where direct simulation is the point.
	FallbackConfigs int
	// FamilyConfigs counts configurations served by single-pass FIFO or
	// PLRU families in the stack engine.
	FamilyConfigs int
	// OptConfigs counts OPT (Belady) configurations, served by the
	// internal/cache/opt engines under either Engine setting.
	OptConfigs int
	// NeedsKinds reports whether any configuration's write policy
	// requires a kind-carrying source.
	NeedsKinds bool
	// BuffersTrace reports whether the run materializes the whole trace
	// in memory first — required by OPT's backward next-use pass.
	BuffersTrace bool

	// Multi-level structure. SharedL1Groups and FusedHierarchies are
	// zero for single-level sweeps. SharedL1Groups counts groups of multi-level non-inclusive
	// hierarchies whose identical first level is simulated once, its
	// filtered miss stream fanned out to every candidate lower level.
	SharedL1Groups int
	// FusedHierarchies counts hierarchies served by one fused
	// per-hierarchy simulator (inclusive/exclusive content policies,
	// which need cross-level feedback, and everything under
	// EngineDirect).
	FusedHierarchies int
	// MaxLevels is the deepest hierarchy in the sweep (1 for plain
	// configuration sweeps).
	MaxLevels int
}

// buildLevel instantiates the units serving a pool of single-level
// configurations and returns a collector that assembles their results in
// cfgs order after the trace has drained. OPT configurations are split
// out and served by internal/cache/opt (per-config direct simulators
// under EngineDirect, per-line-size families otherwise); anns may be nil
// for planning, in which case the OPT units are constructed but must not
// be advanced. The pool's structure is added to info.
func buildLevel(cfgs []cache.Config, eng Engine, anns map[int]*opt.Annotation, info *PlanInfo) ([]unit, func() []cache.Result, error) {
	var units []unit
	var optIdx, restIdx []int
	var optCfgs, restCfgs []cache.Config
	for i, cfg := range cfgs {
		if cfg.Policy == cache.OPT {
			optIdx = append(optIdx, i)
			optCfgs = append(optCfgs, cfg)
		} else {
			restIdx = append(restIdx, i)
			restCfgs = append(restCfgs, cfg)
		}
	}
	info.OptConfigs += len(optCfgs)
	info.BuffersTrace = info.BuffersTrace || len(optCfgs) > 0

	var collectRest, collectOpt func() []cache.Result
	if eng == EngineDirect {
		caches := make([]*cache.Cache, len(restCfgs))
		for i, cfg := range restCfgs {
			c, err := cache.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			caches[i] = c
			units = append(units, c)
		}
		collectRest = func() []cache.Result {
			out := make([]cache.Result, len(caches))
			for i, c := range caches {
				out[i] = c.Result()
			}
			return out
		}
	} else {
		se, err := stack.New(restCfgs)
		if err != nil {
			return nil, nil, err
		}
		for _, u := range se.Units() {
			units = append(units, u)
		}
		info.FallbackConfigs += se.FallbackConfigs()
		info.FamilyConfigs += se.FamilyConfigs()
		collectRest = se.Results
	}
	if len(optCfgs) > 0 {
		if eng == EngineDirect {
			directs := make([]*opt.DirectCache, len(optCfgs))
			for i, cfg := range optCfgs {
				d, err := opt.NewDirect(cfg, anns[cfg.LineBytes])
				if err != nil {
					return nil, nil, err
				}
				directs[i] = d
				units = append(units, d)
			}
			collectOpt = func() []cache.Result {
				out := make([]cache.Result, len(directs))
				for i, d := range directs {
					out[i] = d.Result()
				}
				return out
			}
		} else {
			oe, err := opt.NewEngine(optCfgs, anns)
			if err != nil {
				return nil, nil, err
			}
			for _, f := range oe.Families() {
				units = append(units, f)
			}
			collectOpt = oe.Results
		}
	}
	collect := func() []cache.Result {
		out := make([]cache.Result, len(cfgs))
		for j, r := range collectRest() {
			out[restIdx[j]] = r
		}
		if collectOpt != nil {
			for j, r := range collectOpt() {
				out[optIdx[j]] = r
			}
		}
		return out
	}
	return units, collect, nil
}

// singles wraps each configuration as a one-level hierarchy, as
// cache.Single does, but cuts every level slice from one copy of cfgs so
// a sweep pays one allocation for its levels, not one per configuration.
func singles(cfgs []cache.Config) []cache.Hierarchy {
	levels := append([]cache.Config(nil), cfgs...)
	hs := make([]cache.Hierarchy, len(cfgs))
	for i := range levels {
		hs[i] = cache.Hierarchy{Levels: levels[i : i+1 : i+1]}
	}
	return hs
}

// Plan reports how a configuration set would be executed — engine,
// unit count, single-pass family coverage, direct fallbacks, OPT
// presence, and whether a kinded source or trace buffering is needed —
// without touching a trace. CLIs surface this so the stack engine's
// per-config direct fallback is never a silent performance cliff.
func Plan(opts Options, cfgs []cache.Config) (PlanInfo, error) {
	return PlanHierarchies(opts, singles(cfgs))
}

// Run streams the trace from src through every configuration and returns
// the results in configuration order. The context is polled at every
// chunk boundary: cancelling it stops the sweep within one chunk, shuts
// every worker down without leaking a goroutine, and returns a
// simerr.ErrCanceled error with the failing chunk attached; an
// interrupted sweep is simply run again. A nil ctx never cancels. Run is RunHierarchies over one-level hierarchies.
func Run(ctx context.Context, cfgs []cache.Config, src Source, opts Options) ([]cache.Result, error) {
	hrs, err := RunHierarchies(ctx, singles(cfgs), src, opts)
	if err != nil {
		return nil, err
	}
	return l1Results(hrs), nil
}

// l1Results projects one-level hierarchy results onto their only level.
func l1Results(hrs []cache.HierarchyResult) []cache.Result {
	results := make([]cache.Result, len(hrs))
	for i, hr := range hrs {
		results[i] = hr.L1()
	}
	return results
}

// RunTrace is a convenience wrapper over an in-memory address-only
// trace; sweep a kinded trace with Run over NewKindedSliceSource.
func RunTrace(ctx context.Context, cfgs []cache.Config, trace []uint32, opts Options) ([]cache.Result, error) {
	return Run(ctx, cfgs, NewSliceSource(trace), opts)
}

// Describe renders a plan from Plan or PlanHierarchies for logs and CLIs,
// including any per-config direct fallbacks so they are never silent. A
// one-level plan names its configurations, a deeper one its hierarchies.
func Describe(opts Options, info PlanInfo) string {
	what := fmt.Sprintf("%d configurations", info.Configs)
	if info.MaxLevels > 1 {
		what = fmt.Sprintf("%d hierarchies, max %d levels", info.Configs, info.MaxLevels)
	}
	s := fmt.Sprintf("%s engine: %d workers over %d units (%s), %d refs/chunk",
		info.Engine, opts.workers(info.Units), info.Units, what, opts.chunkRefs())
	if info.SharedL1Groups > 0 {
		s += fmt.Sprintf(", %d shared-L1 groups", info.SharedL1Groups)
	}
	if info.FusedHierarchies > 0 {
		s += fmt.Sprintf(", %d fused hierarchies", info.FusedHierarchies)
	}
	if info.FamilyConfigs > 0 {
		s += fmt.Sprintf(", %d family configs", info.FamilyConfigs)
	}
	if info.FallbackConfigs > 0 {
		s += fmt.Sprintf(", %d direct-fallback configs", info.FallbackConfigs)
	}
	if info.OptConfigs > 0 {
		s += fmt.Sprintf(", %d OPT configs (trace buffered for annotation)", info.OptConfigs)
	}
	if info.NeedsKinds {
		s += ", kinded"
	}
	return s
}

// chunk is one block of references broadcast to every worker. kinds is
// nil on address-only sweeps and exactly parallel to refs on kinded
// ones. pending counts the workers that have not finished with it yet;
// the last one returns the buffers to the pools.
type chunk struct {
	refs    []uint32
	kinds   []uint8
	pending int32
}

// readChunk is the one step every trace consumer — the producer and
// OPT's materialize — reads the trace with. It polls ctx
// (a nil ctx never cancels, for one compare per chunk), reporting
// cancellation under op at the consumer's chunk count; reads one chunk
// into buf, through the kinded face filling kbuf too when ks is non-nil;
// and applies the Source end-of-trace contract. done reports the end of
// the trace, and refs may still hold its final references. kinds is nil
// on address-only reads.
func readChunk(ctx context.Context, op string, chunks int64, src Source, ks KindedSource, buf []uint32, kbuf []uint8) (refs []uint32, kinds []uint8, done bool, err error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, false, simerr.CanceledChunk(ctx, op, chunks)
	}
	var n int
	if ks == nil {
		n, err = src.NextChunk(buf)
	} else {
		n, err = ks.NextChunkKinded(buf, kbuf)
		kinds = kbuf[:n]
	}
	if err != nil && err != io.EOF {
		return nil, nil, false, err
	}
	return buf[:n], kinds, n == 0 || err == io.EOF, nil
}

// materialize drains src into memory, returning the full trace and —
// when ks is non-nil — its parallel kind array. Slice-backed sources
// short-circuit to their remaining backing arrays without copying.
func materialize(ctx context.Context, src Source, ks KindedSource, chunkRefs int) ([]uint32, []uint8, error) {
	switch s := src.(type) {
	case *SliceSource:
		t := s.trace[s.pos:]
		s.pos = len(s.trace)
		return t, nil, nil
	case *KindedSliceSource:
		var k []uint8
		if ks != nil {
			if err := s.checkKinds(len(s.trace)); err != nil {
				return nil, nil, err
			}
			k = s.kinds[s.pos:len(s.trace)]
		}
		t := s.trace[s.pos:]
		s.pos = len(s.trace)
		return t, k, nil
	}
	var trace []uint32
	var kinds []uint8
	buf := make([]uint32, chunkRefs)
	var kbuf []uint8
	if ks != nil {
		kbuf = make([]uint8, chunkRefs)
	}
	for chunks := int64(0); ; chunks++ {
		refs, ckinds, done, err := readChunk(ctx, "sweep: materialize", chunks, src, ks, buf, kbuf)
		if err != nil {
			return nil, nil, err
		}
		trace = append(trace, refs...)
		kinds = append(kinds, ckinds...)
		if done {
			return trace, kinds, nil
		}
	}
}

// fanOut publishes chunks to per-worker queues. Each worker owns a
// contiguous shard of the units, so no unit is ever touched by two
// goroutines and the per-unit access order is the trace order; a plan
// with no units runs one worker over an empty shard, so the trace is
// still read to its end and a read error still surfaces. The producer
// polls ctx between chunks; on cancellation (or any read error) it
// stops producing, closes the queues, and waits for the workers to
// drain what was already published — bounded by workers·queueDepth
// chunks — so no goroutine or pooled buffer leaks.
func fanOut(ctx context.Context, units []unit, src Source, ks KindedSource, workers, chunkRefs int, m *obsMetrics) error {
	pool := sync.Pool{New: func() any { return make([]uint32, chunkRefs) }}
	kpool := sync.Pool{New: func() any { return make([]uint8, chunkRefs) }}
	// release returns a chunk's buffers to their pools.
	release := func(refs []uint32, kinds []uint8) {
		pool.Put(refs[:cap(refs)])
		if kinds != nil {
			kpool.Put(kinds[:cap(kinds)])
		}
	}
	queues := make([]chan *chunk, workers)
	for w := range queues {
		queues[w] = make(chan *chunk, queueDepth)
	}

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := units[w*len(units)/workers : (w+1)*len(units)/workers]
		q := queues[w]
		wid := w
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for c := range q {
				for _, u := range shard {
					u.AccessAllKinded(c.refs, c.kinds)
				}
				m.workerDone(wid, len(shard))
				if atomic.AddInt32(&c.pending, -1) == 0 {
					m.retired()
					release(c.refs, c.kinds)
				}
			}
		}()
	}

	var runErr error
	for produced := int64(0); ; produced++ {
		buf := pool.Get().([]uint32)[:chunkRefs]
		var kbuf []uint8
		if ks != nil {
			kbuf = kpool.Get().([]uint8)[:chunkRefs]
		}
		refs, kinds, done, err := readChunk(ctx, "sweep: produce", produced, src, ks, buf, kbuf)
		if err != nil || len(refs) == 0 {
			release(buf, kbuf)
			runErr = err
			break
		}
		c := &chunk{refs: refs, kinds: kinds, pending: int32(workers)}
		m.produced(len(refs))
		for _, q := range queues {
			q <- c
		}
		if done {
			break
		}
	}
	for _, q := range queues {
		close(q)
	}
	workerWG.Wait()
	return runErr
}
