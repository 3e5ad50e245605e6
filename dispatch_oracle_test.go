// Cross-engine replay oracle: the same recorded session replayed under the
// legacy nested switch (the executable specification) and under the
// default engine (the specialized superblock engine with chaining) must
// produce byte-identical reference streams, identical activity logs and
// identical run statistics. This is the end-to-end form of internal/m68k's
// differential tests: it exercises both engines through the full machine
// (tick sync, interrupts, hacks, trap dispatch, doze skipping) on a real
// session trace, so any accounting or ordering drift the unit streams miss
// shows up here as a stream diff.
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

	replay := func(dispatch string) *Playback {
		t.Helper()
		pb, err := Replay(context.Background(), col.Initial, col.Log, ReplayOptions{
			Profiling:    true,
			WithHacks:    true,
			CollectTrace: true,
			CollectKinds: true,
			Dispatch:     dispatch,
		})
		if err != nil {
			t.Fatalf("replay (dispatch %q): %v", dispatch, err)
		}
		return pb
	}

	ref := replay("legacy")
	if len(ref.Trace) == 0 {
		t.Fatal("legacy replay recorded no references; vacuous oracle")
	}
	// The empty spelling is the default engine, the one every caller that
	// leaves Dispatch unset runs.
	got := replay("")
	if got.Stats.Machine.Instructions != ref.Stats.Machine.Instructions {
		t.Errorf("default: %d instructions, legacy %d",
			got.Stats.Machine.Instructions, ref.Stats.Machine.Instructions)
	}
	if got.Stats.Bus != ref.Stats.Bus {
		t.Errorf("bus stats diverged:\ndefault: %+v\nlegacy: %+v", got.Stats.Bus, ref.Stats.Bus)
	}
	if len(got.Trace) != len(ref.Trace) {
		t.Fatalf("default: %d trace refs, legacy %d", len(got.Trace), len(ref.Trace))
	}
	for i := range ref.Trace {
		if got.Trace[i] != ref.Trace[i] || got.TraceKinds[i] != ref.TraceKinds[i] {
			t.Fatalf("default: ref %d = %#x kind %d, legacy %#x kind %d",
				i, got.Trace[i], got.TraceKinds[i], ref.Trace[i], ref.TraceKinds[i])
		}
	}
	if got.Log.Len() != ref.Log.Len() {
		t.Fatalf("default: %d log records, legacy %d", got.Log.Len(), ref.Log.Len())
	}
	for i := range ref.Log.Records {
		if got.Log.Records[i] != ref.Log.Records[i] {
			t.Fatalf("default: log record %d = %+v, legacy %+v",
				i, got.Log.Records[i], ref.Log.Records[i])
		}
	}
	if !bytes.Equal(got.Final.Marshal(), ref.Final.Marshal()) {
		t.Errorf("default: final device state diverged from legacy")
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
