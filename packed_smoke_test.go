package palmsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/sweep"
)

// TestPartitionedSweepMatchesSerialOnSessionTrace is the acceptance gate
// for packed session traces (and CI's seek-smoke job): a real session
// trace, packed with its PALMIDX1 index and streamed back through
// dtrace.NewPackedSource — the path cachesweep -trace takes — must sweep
// the 56-configuration grid and an L1×L2 hierarchy grid bit-identically
// to the in-memory slice, at one worker and at four. The name dates from
// the range-partitioned decoder this test once gated.
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
	want, err := sweep.RunTrace(nil, cfgs, trace, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := benchHierarchies()
	wantH, err := sweep.RunHierarchies(nil, hs, sweep.NewSliceSource(trace), sweep.Options{Workers: 1})
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

	for _, workers := range []int{1, 4} {
		opts := sweep.Options{Workers: workers}
		got, err := sweep.Run(nil, cfgs, open(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %v diverged:\n got %+v\nwant %+v", workers, cfgs[i], got[i], want[i])
			}
		}
		gotH, err := sweep.RunHierarchies(nil, hs, open(), opts)
		if err != nil {
			t.Fatalf("workers=%d hierarchies: %v", workers, err)
		}
		for i := range wantH {
			if !reflect.DeepEqual(gotH[i], wantH[i]) {
				t.Errorf("workers=%d: %v diverged:\n got %+v\nwant %+v", workers, hs[i], gotH[i], wantH[i])
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
