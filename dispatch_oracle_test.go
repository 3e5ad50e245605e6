// Cross-engine replay oracle: the same recorded session replayed under the
// legacy nested switch (the executable specification) and under the
// default engine (the specialized superblock engine with chaining) must
// produce byte-identical reference streams, identical activity logs and
// identical run statistics. This is the end-to-end form of internal/m68k's
// differential tests: it exercises both engines through the full machine
// (tick sync, interrupts, hacks, trap dispatch, doze skipping) on a real
// session trace, so any accounting or ordering drift the unit streams miss
// shows up here as a stream diff. The default engine runs twice. Traced,
// its inline data path (fastMem) reports every RAM and flash data
// reference through the same trace function as the bus, so the stream
// holds fastMem to the legacy bus reference for reference. Untraced, with
// no hook bound, it is checked by the stats, log and final state.
package palmsim

import (
	"bytes"
	"context"
	"testing"

	"palmsim/internal/gremlin"
)

func TestDispatchEnginesProduceIdenticalReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end session in -short mode")
	}
	cfg := gremlin.Config{Seed: 20260807, Events: 60, MaxThinkTicks: 50}
	col, err := Collect(context.Background(), gremlin.Session(cfg))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if col.Log.Len() == 0 {
		t.Fatal("gremlin session produced an empty activity log")
	}

	replay := func(dispatch string, traced bool) *Playback {
		t.Helper()
		pb, err := Replay(context.Background(), col.Initial, col.Log, ReplayOptions{
			Profiling:    true,
			WithHacks:    true,
			CollectTrace: traced,
			CollectKinds: traced,
			Dispatch:     dispatch,
		})
		if err != nil {
			t.Fatalf("replay (dispatch %q, traced %v): %v", dispatch, traced, err)
		}
		return pb
	}

	ref := replay("legacy", true)
	if len(ref.Trace) == 0 {
		t.Fatal("legacy replay recorded no references; vacuous oracle")
	}
	// The empty spelling is the default engine, the one every caller that
	// leaves Dispatch unset runs.
	for _, leg := range []struct {
		name   string
		traced bool
	}{{"default", true}, {"default untraced", false}} {
		got := replay("", leg.traced)
		if got.Stats.Machine != ref.Stats.Machine {
			t.Errorf("%s: machine stats %+v, legacy %+v", leg.name, got.Stats.Machine, ref.Stats.Machine)
		}
		if got.Stats.Bus != ref.Stats.Bus {
			t.Errorf("%s: bus stats diverged:\n%s: %+v\nlegacy: %+v", leg.name, leg.name, got.Stats.Bus, ref.Stats.Bus)
		}
		if got.Stats.ElapsedSeconds != ref.Stats.ElapsedSeconds {
			t.Errorf("%s: %v s elapsed, legacy %v s", leg.name, got.Stats.ElapsedSeconds, ref.Stats.ElapsedSeconds)
		}
		if leg.traced {
			if len(got.Trace) != len(ref.Trace) {
				t.Fatalf("%s: %d trace refs, legacy %d", leg.name, len(got.Trace), len(ref.Trace))
			}
			for i := range ref.Trace {
				if got.Trace[i] != ref.Trace[i] || got.TraceKinds[i] != ref.TraceKinds[i] {
					t.Fatalf("%s: ref %d = %#x kind %d, legacy %#x kind %d",
						leg.name, i, got.Trace[i], got.TraceKinds[i], ref.Trace[i], ref.TraceKinds[i])
				}
			}
		}
		if got.Log.Len() != ref.Log.Len() {
			t.Fatalf("%s: %d log records, legacy %d", leg.name, got.Log.Len(), ref.Log.Len())
		}
		for i := range ref.Log.Records {
			if got.Log.Records[i] != ref.Log.Records[i] {
				t.Fatalf("%s: log record %d = %+v, legacy %+v",
					leg.name, i, got.Log.Records[i], ref.Log.Records[i])
			}
		}
		if !bytes.Equal(got.Final.Marshal(), ref.Final.Marshal()) {
			t.Errorf("%s: final device state diverged from legacy", leg.name)
		}
	}
}

func TestReplayRejectsUnknownDispatch(t *testing.T) {
	cfg := gremlin.Config{Seed: 1, Events: 1, MaxThinkTicks: 1}
	col, err := Collect(context.Background(), gremlin.Session(cfg))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	// block and table are not replay engines; they must fail like any typo.
	for _, dispatch := range []string{"jit", "block", "table"} {
		if _, err := Replay(context.Background(), col.Initial, col.Log, ReplayOptions{Dispatch: dispatch}); err == nil {
			t.Errorf("Replay accepted dispatch %q", dispatch)
		}
	}
}
