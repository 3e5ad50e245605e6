// The sweep planner and run path. Every sweep is a hierarchy sweep —
// a plain configuration sweep is a set of one-level hierarchies — so
// this file holds the one planner (buildHierarchies) and the one run
// entry point (RunHierarchies) behind every public sweep function.
//
// Multi-level sweeps evaluate L1→L2 (and deeper) cache hierarchies over
// one trace pass. The planner exploits the filtered-miss-stream
// structure: every multi-level non-inclusive hierarchy's lower levels
// are a pure function of (L1 configuration, trace), so candidate
// hierarchies sharing an L1 are grouped — the L1 simulates once per
// chunk and its miss stream fans out to every candidate lower level,
// which reuses the ordinary single-level engines (the stack engine's
// single-pass LRU walks and FIFO/PLRU families included) on the
// filtered stream. Grouping applies recursively, so three-level sweeps
// share L2s within an L1 group the same way.
//
// Inclusive and exclusive hierarchies need cross-level feedback
// (back-invalidation, line migration), so each one runs as its own
// fused hier.Sim unit; EngineDirect forces the same per-hierarchy shape
// for everything, serving as the naive baseline the shared-L1 plan is
// benchmarked against.
package sweep

import (
	"context"
	"fmt"

	"palmsim/internal/cache"
	"palmsim/internal/cache/hier"
	"palmsim/internal/cache/opt"
)

// hierarchiesNeedKinds reports whether any level of any hierarchy has a
// write policy. The L1's write policy alone already shapes the stream
// lower levels see, so kinds matter to the whole hierarchy.
func hierarchiesNeedKinds(hs []cache.Hierarchy) bool {
	for _, h := range hs {
		if h.NeedsKinds() {
			return true
		}
	}
	return false
}

// hierOptLineSizes returns the distinct line sizes of OPT
// configurations across the hierarchies. Validation restricts OPT to
// single-level hierarchies, so these are exactly the annotations a run
// must compute.
func hierOptLineSizes(hs []cache.Hierarchy) []int {
	seen := map[int]bool{}
	var lines []int
	for _, h := range hs {
		for _, cfg := range h.Levels {
			if cfg.Policy == cache.OPT && !seen[cfg.LineBytes] {
				seen[cfg.LineBytes] = true
				lines = append(lines, cfg.LineBytes)
			}
		}
	}
	return lines
}

// sharedL1Unit is one shared-L1 group: the group's first level runs
// once per chunk as a miss-stream filter, and the filtered stream
// advances every inner unit — the single-level engines (or nested
// groups) simulating the members' remaining levels. The inner units
// are driven serially inside this unit; parallelism lives across
// groups, exactly like any other sweep unit.
type sharedL1Unit struct {
	stream *hier.MissStream
	inner  *enginePlan
}

// AccessAllKinded filters the chunk through the L1 and feeds the miss
// stream, which always carries kinds (write-back victims and
// write-through stores are writes), to every inner unit.
func (u *sharedL1Unit) AccessAllKinded(refs []uint32, kinds []uint8) {
	frefs, fkinds := u.stream.Filter(refs, kinds)
	for _, iu := range u.inner.units {
		iu.AccessAllKinded(frefs, fkinds)
	}
}

// enginePlan is an instantiated sweep: its units, the hierarchy-order
// result collector, and the structural summary.
type enginePlan struct {
	units   []unit
	collect func() []cache.HierarchyResult
	info    PlanInfo
}

// buildHierarchies is the sweep planner: it instantiates units for a
// validated hierarchy set. Single-level hierarchies pool into one
// buildLevel call (so the paper sweep as 56 one-level hierarchies plans
// into the stack engine's 2 units, one LRU walk per line size). Multi-level
// non-inclusive hierarchies group by shared first level under the stack
// engine; inclusive/exclusive hierarchies — and every multi-level
// hierarchy under EngineDirect — get one fused hier.Sim each. anns may
// be nil for planning.
func buildHierarchies(hs []cache.Hierarchy, eng Engine, anns map[int]*opt.Annotation) (*enginePlan, error) {
	p := &enginePlan{info: PlanInfo{
		Engine:     eng,
		Configs:    len(hs),
		NeedsKinds: hierarchiesNeedKinds(hs),
	}}
	results := make([]cache.HierarchyResult, len(hs))
	var finishers []func()

	// Single-level hierarchies → one pooled configuration build.
	var singleIdx []int
	var singleCfgs []cache.Config
	// Multi-level NINE under a single-pass engine → shared-L1 groups,
	// keyed by the (comparable) L1 configuration, in first-seen order.
	groupOf := map[cache.Config]int{}
	type l1Group struct {
		l1      cache.Config
		members []int
	}
	var groups []*l1Group

	for i, h := range hs {
		if err := h.Validate(); err != nil {
			return nil, err
		}
		if p.info.MaxLevels < len(h.Levels) {
			p.info.MaxLevels = len(h.Levels)
		}
		switch {
		case len(h.Levels) == 1:
			singleIdx = append(singleIdx, i)
			singleCfgs = append(singleCfgs, h.Levels[0])
		case h.Content != cache.NonInclusive || eng == EngineDirect:
			sim, err := hier.New(h)
			if err != nil {
				return nil, err
			}
			p.units = append(p.units, sim)
			p.info.FusedHierarchies++
			idx := i
			finishers = append(finishers, func() { results[idx] = sim.Results() })
		default:
			gi, ok := groupOf[h.Levels[0]]
			if !ok {
				gi = len(groups)
				groupOf[h.Levels[0]] = gi
				groups = append(groups, &l1Group{l1: h.Levels[0]})
			}
			groups[gi].members = append(groups[gi].members, i)
		}
	}

	if len(singleCfgs) > 0 {
		units, collect, err := buildLevel(singleCfgs, eng, anns, &p.info)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, units...)
		idx := singleIdx
		finishers = append(finishers, func() {
			levels := collect()
			for j := range levels {
				results[idx[j]] = cache.HierarchyResult{Hierarchy: hs[idx[j]], Levels: levels[j : j+1 : j+1]}
			}
		})
	}

	for _, g := range groups {
		l1, err := cache.New(g.l1)
		if err != nil {
			return nil, err
		}
		remainders := make([]cache.Hierarchy, len(g.members))
		for j, idx := range g.members {
			remainders[j] = cache.Hierarchy{Levels: hs[idx].Levels[1:]}
		}
		inner, err := buildHierarchies(remainders, eng, nil)
		if err != nil {
			return nil, err
		}
		u := &sharedL1Unit{stream: hier.NewMissStream(l1), inner: inner}
		p.units = append(p.units, u)
		p.info.SharedL1Groups++
		p.info.SharedL1Groups += inner.info.SharedL1Groups
		p.info.FallbackConfigs += inner.info.FallbackConfigs
		p.info.FamilyConfigs += inner.info.FamilyConfigs
		members := g.members
		finishers = append(finishers, func() {
			l1res := l1.Result()
			for j, hr := range inner.collect() {
				idx := members[j]
				levels := append([]cache.Result{l1res}, hr.Levels...)
				results[idx] = cache.HierarchyResult{Hierarchy: hs[idx], Levels: levels}
			}
		})
	}

	p.info.Units = len(p.units)
	p.collect = func() []cache.HierarchyResult {
		for _, fin := range finishers {
			fin()
		}
		return results
	}
	return p, nil
}

// PlanHierarchies reports how a hierarchy set would execute — engine,
// unit count, shared-L1 grouping, fused hierarchies, OPT presence —
// without touching a trace.
func PlanHierarchies(opts Options, hs []cache.Hierarchy) (PlanInfo, error) {
	p, err := buildHierarchies(hs, opts.engine(), nil)
	if err != nil {
		return PlanInfo{}, err
	}
	return p.info, nil
}

// RunHierarchies sweeps every hierarchy over the trace from src and
// returns results in hierarchy order: cancellation within one chunk and
// deterministic results for any worker count. It is the one run path;
// Run is this over one-level hierarchies.
func RunHierarchies(ctx context.Context, hs []cache.Hierarchy, src Source, opts Options) ([]cache.HierarchyResult, error) {
	for _, h := range hs {
		if err := h.Validate(); err != nil {
			return nil, err
		}
	}
	var ks KindedSource
	if hierarchiesNeedKinds(hs) {
		var ok bool
		if ks, ok = src.(KindedSource); !ok {
			return nil, fmt.Errorf("sweep: write policies need a kinded source, but %T carries no access kinds", src)
		}
	}
	// OPT needs the whole trace up front: the backward next-use pass
	// cannot stream. Materialize once, annotate per line size, and swap
	// in a slice source so the worker fan-out runs unchanged.
	var anns map[int]*opt.Annotation
	if lines := hierOptLineSizes(hs); len(lines) > 0 {
		trace, kinds, err := materialize(ctx, src, ks, opts.chunkRefs())
		if err != nil {
			return nil, err
		}
		anns, err = opt.AnnotateAll(trace, lines)
		if err != nil {
			return nil, err
		}
		if ks != nil {
			kss := NewKindedSliceSource(trace, kinds)
			src, ks = kss, kss
		} else {
			src = NewSliceSource(trace)
		}
	}
	p, err := buildHierarchies(hs, opts.engine(), anns)
	if err != nil {
		return nil, err
	}
	registerPlan(opts.Obs, p.info)
	w := opts.workers(len(p.units))
	if err := fanOut(ctx, p.units, src, ks, w, opts.chunkRefs(), newObsMetrics(opts.Obs, w, len(p.units))); err != nil {
		return nil, err
	}
	results := p.collect()
	registerResults(opts.Obs, results)
	return results, nil
}
