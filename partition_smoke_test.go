package palmsim_test

import (
	"bytes"
	"fmt"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/exp"
	"palmsim/internal/sweep"
)

// TestPartitionedSweepMatchesSerialOnSessionTrace is the acceptance gate
// for seekable traces (and CI's seek-smoke job): a real session trace is
// packed with its PALMIDX1 index, then swept serially and with K ∈
// {1,4,8} partitioned range decoders. Every configuration's counters
// must be bit-identical across all paths — the partitioning
// parallelizes decoding only, never the simulation order.
func TestPartitionedSweepMatchesSerialOnSessionTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	_, trace := benchSetup(t)
	if len(trace) == 0 {
		t.Fatal("empty session trace")
	}
	packed, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := cache.PaperSweep()
	hs := make([]cache.Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		hs[i] = cache.Single(cfg)
	}

	// Serial reference: the plain streaming decode of the same bytes.
	serialSrc, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(nil, cfgs, serialSrc, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("partitions=%d/workers=%d", k, workers)
			st, err := exp.OpenSeekableBytes(packed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sweep.RunPartitionedHierarchies(nil, hs, st,
				sweep.Options{Workers: workers, Partitions: k})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i].L1() != want[i] {
					t.Errorf("%s: %v diverged:\n got %+v\nwant %+v",
						name, cfgs[i], got[i].L1(), want[i])
				}
			}
		}
	}
}

// TestIndexedSessionTraceRoundTrip: the session trace's indexed packing
// must seek bit-identically from arbitrary ordinals — the golden
// round-trip on real (not synthetic) data.
func TestIndexedSessionTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	_, trace := benchSetup(t)
	packed, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := dtrace.OpenIndexedBytes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if it.TotalRefs() != uint64(len(trace)) {
		t.Fatalf("index claims %d refs, trace holds %d", it.TotalRefs(), len(trace))
	}
	for _, ref := range []uint64{0, 1, 4096, uint64(len(trace)) / 3, uint64(len(trace)) - 1} {
		src, err := it.SeekRef(ref)
		if err != nil {
			t.Fatalf("SeekRef(%d): %v", ref, err)
		}
		buf := make([]uint32, 64<<10)
		i := ref
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				t.Fatalf("SeekRef(%d): %v", ref, err)
			}
			if n == 0 {
				break
			}
			for _, a := range buf[:n] {
				if a != trace[i] {
					t.Fatalf("SeekRef(%d): ref %d = %#x, want %#x", ref, i, a, trace[i])
				}
				i++
			}
		}
		src.Close()
		if i != uint64(len(trace)) {
			t.Fatalf("SeekRef(%d): decoded to ref %d, want %d", ref, i, len(trace))
		}
	}
}
