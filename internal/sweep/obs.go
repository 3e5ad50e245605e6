// Observability for the sweep engine. All metric objects are created up
// front and only when Options.Obs is set, so the disabled path (every
// benchmark, and any caller that leaves Obs nil) allocates nothing and
// pays one predicated load per chunk boundary — far below the per-chunk
// simulation work of 64Ki references across every unit.
package sweep

import (
	"fmt"

	"palmsim/internal/cache"
	"palmsim/internal/obs"
)

// obsMetrics carries the sweep's live counters. The nil *obsMetrics is
// the disabled state; every method no-ops on it.
type obsMetrics struct {
	chunks   *obs.Counter   // chunks produced by the trace reader
	refs     *obs.Counter   // references streamed
	consumed *obs.Counter   // chunk consumptions summed over workers
	inflight *obs.Gauge     // chunks published, not yet retired by all workers
	workers  []*obs.Counter // per-worker completed unit·chunk applications
}

// newObsMetrics builds the bundle, or returns nil when r is nil.
func newObsMetrics(r *obs.Registry, nworkers, nunits int) *obsMetrics {
	if r == nil {
		return nil
	}
	m := &obsMetrics{
		chunks:   r.Counter("sweep.chunks_produced"),
		refs:     r.Counter("sweep.refs_streamed"),
		consumed: r.Counter("sweep.chunks_consumed"),
		inflight: r.Gauge("sweep.chunks_inflight"),
	}
	r.Gauge("sweep.workers").Set(int64(nworkers))
	r.Gauge("sweep.units").Set(int64(nunits))
	for w := 0; w < nworkers; w++ {
		m.workers = append(m.workers, r.Counter(fmt.Sprintf("sweep.worker.%d.unit_chunks", w)))
	}
	return m
}

// produced records one chunk of n references entering the queues.
func (m *obsMetrics) produced(n int) {
	if m == nil {
		return
	}
	m.chunks.Inc()
	m.refs.Add(uint64(n))
	m.inflight.Add(1)
}

// workerDone records worker w applying one chunk to its nunits units.
func (m *obsMetrics) workerDone(w, nunits int) {
	if m == nil {
		return
	}
	m.consumed.Inc()
	m.workers[w].Add(uint64(nunits))
}

// retired records a chunk leaving flight (all workers finished with it).
func (m *obsMetrics) retired() {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
}

// registerPlan publishes the engine plan's structure — most importantly
// how many configurations fell back to per-config direct simulation
// inside the stack engine, so the fallback shows up in metrics and run
// manifests instead of being a silent performance cliff.
func registerPlan(r *obs.Registry, info PlanInfo) {
	if r == nil {
		return
	}
	r.Gauge("sweep.fallback_configs").Set(int64(info.FallbackConfigs))
	r.Gauge("sweep.family_configs").Set(int64(info.FamilyConfigs))
	r.Gauge("sweep.opt_configs").Set(int64(info.OptConfigs))
	r.Gauge("sweep.shared_l1_groups").Set(int64(info.SharedL1Groups))
	r.Gauge("sweep.fused_hierarchies").Set(int64(info.FusedHierarchies))
}

// registerResults publishes sweep-wide cache aggregates (accesses, misses,
// RAM/flash splits summed across every level of every hierarchy) as
// polled funcs. Funcs rebind on re-registration, so a later sweep in the
// same process (e.g. the cross-validation pass) supersedes the earlier
// one.
func registerResults(r *obs.Registry, results []cache.HierarchyResult) {
	if r == nil {
		return
	}
	var levels int
	var acc, miss, ramRefs, flashRefs, ramMiss, flashMiss, writes, wbs uint64
	for _, hr := range results {
		for _, res := range hr.Levels {
			levels++
			acc += res.Accesses
			miss += res.Misses
			ramRefs += res.RAMRefs
			flashRefs += res.FlashRefs
			ramMiss += res.RAMMisses
			flashMiss += res.FlashMisses
			writes += res.Writes
			wbs += res.Writebacks
		}
	}
	r.Func("cache.accesses", func() float64 { return float64(acc) })
	r.Func("cache.misses", func() float64 { return float64(miss) })
	r.Func("cache.ram_refs", func() float64 { return float64(ramRefs) })
	r.Func("cache.flash_refs", func() float64 { return float64(flashRefs) })
	r.Func("cache.ram_misses", func() float64 { return float64(ramMiss) })
	r.Func("cache.flash_misses", func() float64 { return float64(flashMiss) })
	r.Func("cache.writes", func() float64 { return float64(writes) })
	r.Func("cache.writebacks", func() float64 { return float64(wbs) })
	r.Func("cache.configs", func() float64 { return float64(levels) })
}
