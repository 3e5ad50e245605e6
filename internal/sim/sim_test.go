package sim

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"palmsim/internal/bus"
	"palmsim/internal/dtrace"
	"palmsim/internal/emu"
	"palmsim/internal/hotsync"
	"palmsim/internal/hw"
	"palmsim/internal/m68k"
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

// TestTraceTicksPerReference pins the chunked sink to its definition. A
// reference's tick is Cycles/CyclesPerTick when it is made, and
// TraceTicks marks the first reference and every reference whose tick
// differs from the one before it. The same replay runs through Replay
// and through a sink with 1,000-reference chunks that also logs each
// reference's tick; both must equal the marks the log defines. The
// session dozes through idle ticks, so some ticks have no references.
func TestTraceTicksPerReference(t *testing.T) {
	ctx := context.Background()
	col, err := Collect(ctx, tinySession("ticks", 9))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Release()
	opt := ReplayOptions{Profiling: true, CollectTrace: true, CollectKinds: true, CollectTicks: true}
	pb, err := Replay(ctx, col.Initial, col.Log, opt)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()

	m, err := emu.New(emu.Options{Profiling: true, TraceNative: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := hotsync.Restore(m, col.Initial); err != nil {
		t.Fatal(err)
	}
	const chunk = 1000
	sink := newTraceSink(m, opt, chunk)
	var ticks []uint32
	m.SetTracer(func(addr uint32, size m68k.Size, kind m68k.Access) {
		sink.ref(addr, size, kind)
		if bus.Mapped(addr) {
			ticks = append(ticks, uint32(m.CPU.Cycles/hw.CyclesPerTick))
		}
	})
	end, err := scheduleLog(m, col.Log)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilTick(end + settleTicks); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	addrs, kinds := sink.finish()

	var want []dtrace.TickMark
	for i, tk := range ticks {
		if i == 0 || tk != ticks[i-1] {
			want = append(want, dtrace.TickMark{Ref: uint64(i), Tick: uint64(tk)})
		}
	}
	if len(addrs) != len(ticks) || len(addrs) < 3*chunk {
		t.Fatalf("sink kept %d refs, the tracer saw %d; want the same, over 3 chunks", len(addrs), len(ticks))
	}
	if !slices.Equal(sink.marks, want) {
		t.Errorf("chunked sink: %d tick marks differ from the %d per-reference marks", len(sink.marks), len(want))
	}
	if !slices.Equal(pb.TraceTicks, want) || !slices.Equal(pb.Trace, addrs) || !slices.Equal(pb.TraceKinds, kinds) {
		t.Errorf("Replay's trace or its %d tick marks differ from the per-reference replay's", len(pb.TraceTicks))
	}
	if m.Stats.SkippedCycles == 0 {
		t.Error("the replay never dozed")
	}
	gap := false
	for i := 1; i < len(want); i++ {
		gap = gap || want[i].Tick > want[i-1].Tick+1
	}
	if !gap {
		t.Error("no tick without references")
	}
}

// TestTraceSinkTickSpanEdges drives the sink's tick marks with cycle
// counts at the edges of a tick's span: its first and last cycle, a jump
// over idle ticks, a count that moves backwards and the tick counter's
// wrap at 2^32. Each reference is marked exactly when its tick differs
// from the previous reference's.
func TestTraceSinkTickSpanEdges(t *testing.T) {
	var cycles uint64
	sink := &traceSink{mark: true, chunk: 2, cycles: &cycles}
	const cpt = hw.CyclesPerTick
	var want []dtrace.TickMark
	var prev uint32
	for i, c := range []uint64{7, cpt - 1, cpt, cpt, 2*cpt - 1, 5 * cpt, 5*cpt + 1, 3 * cpt, (1<<32 - 1) * cpt, 1 << 32 * cpt} {
		cycles = c
		sink.ref(0x1000, m68k.Word, m68k.Read)
		if tk := uint32(c / cpt); i == 0 || tk != prev {
			want = append(want, dtrace.TickMark{Ref: uint64(i), Tick: uint64(tk)})
			prev = tk
		}
	}
	if !slices.Equal(sink.marks, want) {
		t.Errorf("marks %v, want %v", sink.marks, want)
	}
}
