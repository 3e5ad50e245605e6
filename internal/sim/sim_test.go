package sim

import (
	"context"
	"strings"
	"sync"
	"testing"

	"palmsim/internal/obs"
	"palmsim/internal/user"
)

func tinySession(name string, seed int64) Session {
	return Session{Name: name, Seed: seed, Script: func(b *user.Builder) {
		b.IdleSeconds(1)
		b.Tap(30, 40) // launch memo
		b.Type("ab")
		b.Tap(30, 150) // save
		b.Home()
		b.Notify(1)
	}}
}

func TestCollectRejectsEmptySession(t *testing.T) {
	empty := Session{Name: "empty", Script: func(b *user.Builder) { b.IdleSeconds(1) }}
	if _, err := Collect(context.Background(), empty); err == nil {
		t.Fatal("empty session accepted")
	}
}

func TestCollectFromChainsState(t *testing.T) {
	first, err := Collect(context.Background(), tinySession("first", 1))
	if err != nil {
		t.Fatal(err)
	}
	memo1, _ := first.Final.Find("MemoDB")
	if len(memo1.Records) != 1 {
		t.Fatalf("first session saved %d memos", len(memo1.Records))
	}

	second, err := CollectFrom(context.Background(), first.Final, tinySession("second", 2))
	if err != nil {
		t.Fatal(err)
	}
	// The second session starts with the first memo present and adds one.
	if db, ok := second.Initial.Find("MemoDB"); !ok || len(db.Records) != 1 {
		t.Error("chained initial state lost the first memo")
	}
	memo2, _ := second.Final.Find("MemoDB")
	if len(memo2.Records) != 2 {
		t.Errorf("chained final state has %d memos, want 2", len(memo2.Records))
	}
	// The activity log was reset between sessions.
	if db, ok := second.Initial.Find("ActivityLogDB"); !ok || len(db.Records) != 0 {
		t.Error("chained session did not start with a fresh activity log")
	}
}

func TestChainedReplayValidates(t *testing.T) {
	first, err := Collect(context.Background(), tinySession("first", 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := CollectFrom(context.Background(), first.Final, tinySession("second", 2))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Replay(context.Background(), second.Initial, second.Log, ReplayOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	dm, _ := second.Final.Find("MemoDB")
	em, ok := pb.Final.Find("MemoDB")
	if !ok || len(em.Records) != len(dm.Records) {
		t.Fatalf("chained replay memo count: %d", len(em.Records))
	}
	for i := range dm.Records {
		if string(dm.Records[i].Data) != string(em.Records[i].Data) {
			t.Errorf("memo %d diverged", i)
		}
	}
}

func TestReplayOptionsIndependence(t *testing.T) {
	col, err := Collect(context.Background(), tinySession("opts", 3))
	if err != nil {
		t.Fatal(err)
	}
	// No trace requested: Trace must be nil, stats still populated.
	pb, err := Replay(context.Background(), col.Initial, col.Log, ReplayOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if pb.Trace != nil {
		t.Error("trace collected without CollectTrace")
	}
	if pb.Log != nil {
		t.Error("replay log exported without WithHacks")
	}
	if pb.OpcodeHist != nil || pb.InstrTrace != nil {
		t.Error("optional collectors active without request")
	}
	if pb.Stats.Machine.Instructions == 0 {
		t.Error("stats missing")
	}
}

// TestSnapshotDuringReplay scrapes the registry in a loop while a replay
// runs, as the progress reporter and the metrics endpoint do. Under -race
// it fails if a func metric reads a counter the machine is writing. The
// machine's counts never move backwards mid-run and read the exact run
// statistics once the replay returns.
func TestSnapshotDuringReplay(t *testing.T) {
	col, err := Collect(context.Background(), tinySession("scrape", 5))
	if err != nil {
		t.Fatal(err)
	}
	counts := []string{"emu.instructions", "emu.skipped_cycles", "bus.fetches", "bus.writes", "kernel.trap_dispatches"}
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var scrapes int
	var backwards []string
	go func() {
		defer wg.Done()
		last := map[string]float64{}
		for {
			select {
			case <-done:
				return
			default:
			}
			got := map[string]float64{}
			for _, s := range reg.Snapshot() {
				got[s.Name] = s.Value
			}
			for _, name := range counts {
				if got[name] < last[name] {
					backwards = append(backwards, name)
				}
				last[name] = got[name]
			}
			scrapes++
		}
	}()
	pb, err := Replay(context.Background(), col.Initial, col.Log,
		ReplayOptions{Profiling: true, CollectTrace: true, CountOpcodes: true, Obs: reg})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if scrapes == 0 {
		t.Fatal("no snapshot ran during the replay")
	}
	if len(backwards) > 0 {
		t.Errorf("counts moved backwards mid-run: %v", backwards)
	}
	got := map[string]float64{}
	var groups float64
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
		if strings.HasPrefix(s.Name, "m68k.group.") {
			groups += s.Value
		}
	}
	st := pb.Stats
	for i, want := range []uint64{st.Machine.Instructions, st.Machine.SkippedCycles, st.Bus.Fetches, st.Bus.Writes, st.Kernel.TrapDispatches} {
		if got[counts[i]] != float64(want) {
			t.Errorf("%s = %v after the replay, want %d", counts[i], got[counts[i]], want)
		}
	}
	if groups != float64(st.Machine.Instructions) {
		t.Errorf("m68k.group.* sum to %v, want %d instructions", groups, st.Machine.Instructions)
	}
}
