package palmsim_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"palmsim"
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

// TestIndexedSessionTraceRoundTrip: session 1, replayed with access
// kinds and tick marks as palmsim -out replays it, packs with its
// PALMIDX1 footer and decodes through NextChunkKinded back to the
// replay's addresses and kinds — the golden round trip on real (not
// synthetic) data.
func TestIndexedSessionTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	ctx := context.Background()
	col, err := palmsim.Collect(ctx, palmsim.PaperSessions()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := palmsim.DefaultReplayOptions()
	opt.WithHacks, opt.CollectKinds, opt.CollectTicks = true, true, true
	pb, err := palmsim.Replay(ctx, col.Initial, col.Log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.TraceTicks) == 0 || len(pb.TraceKinds) != len(pb.Trace) {
		t.Fatalf("replay collected %d tick marks and %d kinds for %d refs",
			len(pb.TraceTicks), len(pb.TraceKinds), len(pb.Trace))
	}
	packed, err := dtrace.PackTraceIndexed(pb.Trace, pb.TraceKinds, pb.TraceTicks)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	buf, kinds := make([]uint32, 64<<10), make([]uint8, 64<<10)
	i := 0
	for {
		n, err := src.NextChunkKinded(buf, kinds)
		if err != nil {
			t.Fatalf("after %d refs: %v", i, err)
		}
		if n == 0 {
			break
		}
		if i+n > len(pb.Trace) {
			t.Fatalf("decoded more than the replay's %d refs", len(pb.Trace))
		}
		for j := 0; j < n; j, i = j+1, i+1 {
			if buf[j] != pb.Trace[i] || kinds[j] != pb.TraceKinds[i] {
				t.Fatalf("ref %d = %#x/%d, replay %#x/%d", i, buf[j], kinds[j], pb.Trace[i], pb.TraceKinds[i])
			}
		}
	}
	if i != len(pb.Trace) {
		t.Fatalf("decoded %d refs, replay traced %d", i, len(pb.Trace))
	}
}
