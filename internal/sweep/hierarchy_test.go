package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/cache/hier"
	"palmsim/internal/simerr"
)

// hierGrid builds an L1×L2 hierarchy grid: every diffGeometries L1
// (with the given policy/write policy) paired with every L2 size in
// l2KB, so many hierarchies share each L1.
func hierGrid(p cache.Policy, w cache.WritePolicy, content cache.ContentPolicy, l2KB []int) []cache.Hierarchy {
	var hs []cache.Hierarchy
	for _, l1 := range diffGeometries() {
		l1.Policy = p
		l1.Write = w
		for _, kb := range l2KB {
			l2 := cache.Config{SizeBytes: kb << 10, LineBytes: 32, Ways: 4, Policy: p, Write: w}
			if content == cache.Exclusive {
				l2.LineBytes = l1.LineBytes
			}
			hs = append(hs, cache.Hierarchy{Levels: []cache.Config{l1, l2}, Content: content})
		}
	}
	return hs
}

// fusedOracle simulates each hierarchy independently with the fused
// hier.Sim — itself differentially tested against composed single-level
// caches in internal/cache/hier — serially, chunk size irrelevant.
func fusedOracle(t testing.TB, hs []cache.Hierarchy, trace []uint32, kinds []uint8) []cache.HierarchyResult {
	t.Helper()
	out := make([]cache.HierarchyResult, len(hs))
	for i, h := range hs {
		sim, err := hier.New(h)
		if err != nil {
			t.Fatal(err)
		}
		sim.AccessAllKinded(trace, kinds)
		out[i] = sim.Results()
	}
	return out
}

func compareHierResults(t *testing.T, name string, hs []cache.Hierarchy, got, want []cache.HierarchyResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i].Levels) != len(want[i].Levels) {
			t.Fatalf("%s %v: %d levels, want %d", name, hs[i], len(got[i].Levels), len(want[i].Levels))
			continue
		}
		for lv := range got[i].Levels {
			if got[i].Levels[lv] != want[i].Levels[lv] {
				t.Errorf("%s %v level %d:\n got  %+v\n want %+v", name, hs[i], lv+1, got[i].Levels[lv], want[i].Levels[lv])
			}
		}
		if got[i].BackInvalidations != want[i].BackInvalidations || got[i].BackInvalDirty != want[i].BackInvalDirty {
			t.Errorf("%s %v: back-inval %d/%d, want %d/%d", name, hs[i],
				got[i].BackInvalidations, got[i].BackInvalDirty, want[i].BackInvalidations, want[i].BackInvalDirty)
		}
	}
}

// TestHierarchySweepMatchesFusedOracle is the sweep-level differential
// suite: the shared-L1 stack plan and the naive EngineDirect plan must
// both be bit-identical to per-hierarchy fused simulation, for every
// content policy × write policy, across worker counts.
func TestHierarchySweepMatchesFusedOracle(t *testing.T) {
	trace, kinds := kindedFixedTrace(120_000)
	for _, content := range []cache.ContentPolicy{cache.NonInclusive, cache.Inclusive, cache.Exclusive} {
		for _, w := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
			hs := hierGrid(cache.LRU, w, content, []int{8, 32})
			// An all-WriteIgnore sweep runs address-only (kinds are never
			// consumed), matching the single-level sweep's semantics.
			oracleKinds := kinds
			if !hierarchiesNeedKinds(hs) {
				oracleKinds = nil
			}
			want := fusedOracle(t, hs, trace, oracleKinds)
			for _, eng := range []Engine{EngineStack, EngineDirect} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%v/%v/%v/w%d", content, w, eng, workers)
					got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds),
						Options{Workers: workers, ChunkRefs: 8192, Engine: eng})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					compareHierResults(t, name, hs, got, want)
				}
			}
		}
	}
}

// TestHierarchySweepPolicies runs the shared-L1 plan over FIFO and PLRU
// grids — the single-pass family engines consuming a filtered miss
// stream rather than a raw trace.
func TestHierarchySweepPolicies(t *testing.T) {
	trace, kinds := kindedFixedTrace(80_000)
	for _, p := range []cache.Policy{cache.FIFO, cache.PLRU, cache.Random} {
		hs := hierGrid(p, cache.WriteBack, cache.NonInclusive, []int{16})
		want := fusedOracle(t, hs, trace, kinds)
		got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds),
			Options{Workers: 3, ChunkRefs: 4096})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		compareHierResults(t, p.String(), hs, got, want)
	}
}

// TestSingleLevelHierarchySweepMatchesRun holds single-level
// hierarchies — including OPT — bit-identical to the existing
// configuration sweep over the same trace.
func TestSingleLevelHierarchySweepMatchesRun(t *testing.T) {
	trace, kinds := kindedFixedTrace(60_000)
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.OPT, cache.PLRU} {
		for _, g := range diffGeometries() {
			g.Policy = pol
			if pol != cache.OPT {
				g.Write = cache.WriteBack
			}
			cfgs = append(cfgs, g)
		}
	}
	hs := make([]cache.Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		hs[i] = cache.Single(cfg)
	}
	want, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hs {
		if len(got[i].Levels) != 1 || got[i].Levels[0] != want[i] {
			t.Errorf("%v: hierarchy result %+v != sweep result %+v", cfgs[i], got[i].Levels, want[i])
		}
	}
}

// TestThreeLevelHierarchySweep pushes an L1→L2→L3 NINE grid through the
// recursive shared-L1 (and nested shared-L2) planner.
func TestThreeLevelHierarchySweep(t *testing.T) {
	trace, kinds := kindedFixedTrace(60_000)
	l1 := cache.Config{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: cache.WriteBack}
	l2 := cache.Config{SizeBytes: 8 << 10, LineBytes: 16, Ways: 4, Policy: cache.LRU, Write: cache.WriteBack}
	var hs []cache.Hierarchy
	for _, l3KB := range []int{32, 64, 128} {
		l3 := cache.Config{SizeBytes: l3KB << 10, LineBytes: 32, Ways: 8, Policy: cache.LRU, Write: cache.WriteBack}
		hs = append(hs, cache.Hierarchy{Levels: []cache.Config{l1, l2, l3}})
	}
	want := fusedOracle(t, hs, trace, kinds)
	got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	compareHierResults(t, "three-level", hs, got, want)

	info, err := PlanHierarchies(Options{}, hs)
	if err != nil {
		t.Fatal(err)
	}
	// One outer L1 group, whose inner plan groups the three identical
	// L2 remainders into one nested shared group.
	if info.SharedL1Groups != 2 {
		t.Errorf("SharedL1Groups = %d, want 2 (outer L1 + nested L2)", info.SharedL1Groups)
	}
	if info.MaxLevels != 3 {
		t.Errorf("MaxLevels = %d, want 3", info.MaxLevels)
	}
}

// TestPlanHierarchies pins the planner's structural accounting.
func TestPlanHierarchies(t *testing.T) {
	l1a := cache.Config{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: cache.WriteBack}
	l1b := cache.Config{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: cache.WriteBack}
	l2 := func(kb int) cache.Config {
		return cache.Config{SizeBytes: kb << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU, Write: cache.WriteBack}
	}
	hs := []cache.Hierarchy{
		{Levels: []cache.Config{l1a, l2(8)}},
		{Levels: []cache.Config{l1a, l2(16)}},
		{Levels: []cache.Config{l1b, l2(8)}},
		{Levels: []cache.Config{l1a, l2(8)}, Content: cache.Inclusive},
		cache.Single(cache.Config{SizeBytes: 4 << 10, LineBytes: 16, Ways: 1, Policy: cache.OPT}),
	}
	info, err := PlanHierarchies(Options{}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Configs != 5 {
		t.Errorf("Configs = %d, want 5", info.Configs)
	}
	if info.SharedL1Groups != 2 {
		t.Errorf("SharedL1Groups = %d, want 2 (l1a group, l1b group)", info.SharedL1Groups)
	}
	if info.FusedHierarchies != 1 {
		t.Errorf("FusedHierarchies = %d, want 1 (the inclusive pair)", info.FusedHierarchies)
	}
	if info.OptConfigs != 1 || !info.BuffersTrace {
		t.Errorf("OptConfigs = %d BuffersTrace = %v, want 1/true", info.OptConfigs, info.BuffersTrace)
	}
	if !info.NeedsKinds {
		t.Error("write-back hierarchy set must need kinds")
	}
	if info.MaxLevels != 2 {
		t.Errorf("MaxLevels = %d, want 2", info.MaxLevels)
	}

	// EngineDirect fuses everything multi-level: the naive per-pair
	// baseline the shared plan is benchmarked against.
	dinfo, err := PlanHierarchies(Options{Engine: EngineDirect}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if dinfo.SharedL1Groups != 0 || dinfo.FusedHierarchies != 4 {
		t.Errorf("direct plan: groups %d fused %d, want 0/4", dinfo.SharedL1Groups, dinfo.FusedHierarchies)
	}

	s := Describe(Options{}, info)
	for _, wantSub := range []string{"5 hierarchies, max 2 levels", "shared-L1", "fused", "kinded"} {
		if !strings.Contains(s, wantSub) {
			t.Errorf("Describe = %q missing %q", s, wantSub)
		}
	}

	if _, err := PlanHierarchies(Options{}, []cache.Hierarchy{{}}); err == nil {
		t.Error("empty hierarchy accepted")
	}

	// A plain configuration sweep is one level deep, through either
	// planning entry point.
	flat := []cache.Config{l1a, l1b}
	for name, plan := range map[string]func() (PlanInfo, error){
		"Plan":            func() (PlanInfo, error) { return Plan(Options{}, flat) },
		"PlanHierarchies": func() (PlanInfo, error) { return PlanHierarchies(Options{}, singles(flat)) },
	} {
		info, err := plan()
		if err != nil {
			t.Fatal(err)
		}
		if info.MaxLevels != 1 {
			t.Errorf("%s: single-level MaxLevels = %d, want 1", name, info.MaxLevels)
		}
		if s := Describe(Options{}, info); !strings.Contains(s, "(2 configurations)") {
			t.Errorf("%s: Describe = %q, want it to name 2 configurations", name, s)
		}
	}
}

// TestHierarchySweepCheckpointResume cancels a hierarchy sweep of
// shared-L1 groups and a fused inclusive hierarchy after six chunks,
// and fails one after three, then requires a rerun on a fresh source
// bit-identical to an uninterrupted run, at every level.
func TestHierarchySweepCheckpointResume(t *testing.T) {
	trace, kinds := kindedFixedTrace(64_000)
	hs := hierGrid(cache.LRU, cache.WriteBack, cache.NonInclusive, []int{8, 32})
	hs = append(hs, cache.Hierarchy{Levels: []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU, Write: cache.WriteBack},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU, Write: cache.WriteBack},
	}, Content: cache.Inclusive})

	want, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{Workers: 2, ChunkRefs: 4096}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptRun(t, ctx, hs, &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: 6, cancel: cancel},
		opts, simerr.ErrCanceled, 6)
	interruptRun(t, context.Background(), hs, &failSource{inner: NewKindedSliceSource(trace, kinds), after: 4},
		opts, simerr.ErrCorruptTrace, 3)

	got, err := RunHierarchies(context.Background(), hs, NewKindedSliceSource(trace, kinds), opts)
	if err != nil {
		t.Fatal(err)
	}
	compareHierResults(t, "rerun", hs, got, want)
}

// TestPartitionedHierarchySweep drives the write-back inclusive and
// exclusive hierarchy grids through a kinded packed trace and holds them
// to the fused per-hierarchy oracle.
func TestPartitionedHierarchySweep(t *testing.T) {
	trace, kinds, data := packKinded(t, 100_000)
	for _, content := range []cache.ContentPolicy{cache.Inclusive, cache.Exclusive} {
		hs := hierGrid(cache.LRU, cache.WriteBack, content, []int{8, 32})
		want := fusedOracle(t, hs, trace, kinds)
		got, err := RunHierarchies(context.Background(), hs, packedSource(t, data),
			Options{Workers: 2, ChunkRefs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		compareHierResults(t, content.String(), hs, got, want)
	}
}

// TestHierarchySweepRejectsKindless mirrors the configuration sweep's
// kind check: write-policy hierarchies over an address-only source fail
// up front.
func TestHierarchySweepRejectsKindless(t *testing.T) {
	hs := hierGrid(cache.LRU, cache.WriteBack, cache.NonInclusive, []int{8})
	_, err := RunHierarchies(context.Background(), hs, NewSliceSource([]uint32{1, 2, 3}), Options{})
	if err == nil || !strings.Contains(err.Error(), "no access kinds") {
		t.Errorf("kindless hierarchy sweep: err = %v, want a missing-kinds error", err)
	}
}
