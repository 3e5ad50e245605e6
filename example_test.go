package palmsim_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"strings"

	"palmsim"
	"palmsim/internal/cache"
	"palmsim/internal/exp"
	"palmsim/internal/gremlin"
	"palmsim/internal/sweep"
	"palmsim/internal/validate"
)

// Example_quickstart boots a simulated Palm m515, runs a minimal
// scripted session against it and prints what the trace-driven
// simulator saw.
func Example_quickstart() {
	// A session is a deterministic script of user actions. The builder
	// humanizes timing (tap holds, keystroke cadence, idle gaps) from the
	// session seed.
	session := palmsim.Session{
		Name: "quickstart",
		Seed: 42,
		Script: func(b *palmsim.Builder) {
			b.IdleSeconds(1)
			b.WriteMemo("hello from the quickstart")
			b.IdleSeconds(5)
			b.PlayPuzzle(3)
			b.IdleSeconds(2)
			b.Notify(1)
		},
	}

	// Collect boots the device, installs the paper's five logging hacks,
	// captures the initial state, and runs the session in simulated time.
	col, err := palmsim.Collect(context.Background(), session)
	if err != nil {
		fmt.Println("collect:", err)
		return
	}
	fmt.Printf("session %q on the instrumented handheld:\n", session.Name)
	fmt.Printf("  activity log records: %d\n", col.Log.Len())
	fmt.Printf("  emulated time:        %s\n", palmsim.FormatElapsed(col.Stats.ElapsedSeconds))
	fmt.Printf("  memory references:    %d RAM + %d flash (avg %.2f cycles)\n",
		col.Stats.Bus.RAMRefs, col.Stats.Bus.FlashRefs, col.Stats.AvgMemCycles())

	// Replay the log on a fresh machine and collect an address trace.
	pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.DefaultReplayOptions())
	if err != nil {
		fmt.Println("replay:", err)
		return
	}
	fmt.Printf("replay on a fresh machine:\n")
	fmt.Printf("  instructions executed: %d\n", pb.Stats.Machine.Instructions)
	fmt.Printf("  trace length:          %d references\n", len(pb.Trace))

	// The final states converge: the saved memo is byte-identical.
	devMemo, _ := col.Final.Find("MemoDB")
	emuMemo, _ := pb.Final.Find("MemoDB")
	fmt.Printf("  memo on device: %q\n", trimNul(devMemo.Records[0].Data))
	fmt.Printf("  memo on emulator: %q\n", trimNul(emuMemo.Records[0].Data))
	// Output:
	// session "quickstart" on the instrumented handheld:
	//   activity log records: 315
	//   emulated time:        0:00:35
	//   memory references:    207488 RAM + 357077 flash (avg 2.26 cycles)
	// replay on a fresh machine:
	//   instructions executed: 292030
	//   trace length:          452477 references
	//   memo on device: "hello from the quickstart"
	//   memo on emulator: "hello from the quickstart"
}

// trimNul returns b up to its first NUL byte.
func trimNul(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// Example_recordReplay demonstrates the deterministic state machine
// model (§2.1): a session is recorded on one simulated handheld,
// serialized to bytes (as HotSync and the activity-log transfer would),
// deserialized, and replayed on a second machine, which follows the
// same execution path and ends in the same state. Both §3 validations
// run at the end.
func Example_recordReplay() {
	session := palmsim.Session{
		Name: "record-replay",
		Seed: 1234,
		Script: func(b *palmsim.Builder) {
			b.IdleSeconds(1)
			b.WriteMemo("state machines are deterministic")
			b.IdleSeconds(10)
			b.PlayPuzzle(6)
			b.IdleSeconds(3)
			b.BrowseAddresses(2)
			b.Notify(1)
		},
	}

	// Machine A: the instrumented handheld.
	fmt.Println("recording on machine A...")
	col, err := palmsim.Collect(context.Background(), session)
	if err != nil {
		fmt.Println("collect:", err)
		return
	}

	// Serialize everything that would cross the USB cable.
	stateBytes := col.Initial.Marshal()
	logBytes := col.Log.Marshal()
	fmt.Printf("  transferred: %d bytes of initial state, %d bytes of activity log (%d records)\n",
		len(stateBytes), len(logBytes), col.Log.Len())

	// Machine B: the emulator.
	initial, err := palmsim.UnmarshalState(stateBytes)
	if err != nil {
		fmt.Println("state:", err)
		return
	}
	activityLog, err := palmsim.UnmarshalLog(logBytes)
	if err != nil {
		fmt.Println("log:", err)
		return
	}
	fmt.Println("replaying on machine B (hacks reinstalled, as in the paper's validation)...")
	pb, err := palmsim.Replay(context.Background(), initial, activityLog, palmsim.ReplayOptions{
		Profiling: true,
		WithHacks: true,
	})
	if err != nil {
		fmt.Println("replay:", err)
		return
	}

	// §3.3: the log recorded during replay matches the original.
	logRep := validate.CorrelateLogs(col.Log, pb.Log)
	fmt.Printf("  activity-log correlation: %s\n", logRep)

	// §3.4: the final states match field by field.
	stRep := validate.CorrelateStates(col.Final, pb.Final)
	fmt.Printf("  final-state correlation:  %s\n", stRep)
	for _, d := range stRep.Diffs {
		fmt.Printf("    expected difference: %s\n", d)
	}

	if logRep.OK() && stRep.OK() {
		fmt.Println("\nvalidation PASSED: machine B followed machine A's execution path.")
	} else {
		fmt.Println("\nvalidation FAILED")
	}
	// Output:
	// recording on machine A...
	//   transferred: 532 bytes of initial state, 6016 bytes of activity log (375 records)
	// replaying on machine B (hacks reinstalled, as in the paper's validation)...
	//   activity-log correlation: pen 265/265 key 35/35 maxSkew 0 ticks, 0 problems
	//   final-state correlation:  5 databases, 6 total diffs, 0 unexpected, 0 missing, 0 extra
	//     expected difference: ActivityLogDB: CREATION DATE: 3187296000 != 0
	//     expected difference: AddressDB: CREATION DATE: 3187296000 != 0
	//     expected difference: MemoDB: CREATION DATE: 3187296000 != 0
	//     expected difference: PuzzleScoresDB: CREATION DATE: 3187296000 != 0
	//     expected difference: psysLaunchDB: CREATION DATE: 3187296000 != 0
	//     expected difference: psysLaunchDB: MODIFICATION DATE: 3187296000 != 0
	//
	// validation PASSED: machine B followed machine A's execution path.
}

// Example_cacheStudy reproduces the paper's §4 case study end to end:
// record a user session, replay it to obtain the memory-reference trace,
// and sweep the 56 cache configurations to see how much even a small
// cache would help a Palm m515. The paper's headline result is a
// better-than-50% reduction in average effective memory access time.
func Example_cacheStudy() {
	// Session 1 of Table 1: a day of memos, Puzzle games and browsing.
	session := palmsim.PaperSessions()[0]

	fmt.Printf("collecting %s...\n", session.Name)
	col, err := palmsim.Collect(context.Background(), session)
	if err != nil {
		fmt.Println("collect:", err)
		return
	}
	fmt.Printf("replaying %d logged events...\n", col.Log.Len())
	pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.DefaultReplayOptions())
	if err != nil {
		fmt.Println("replay:", err)
		return
	}

	// All 56 configurations simulated concurrently, one worker per core;
	// results are bit-identical to the serial sweep.
	results, err := sweep.RunTrace(context.Background(), cache.PaperSweep(), pb.Trace, sweep.Options{})
	if err != nil {
		fmt.Println("sweep:", err)
		return
	}

	// Every result counts the trace's references by region: the no-cache
	// baseline covers exactly the references the caches saw.
	ram, flash := results[0].RAMRefs, results[0].FlashRefs
	noCache := cache.NoCacheTeff(ram, flash)
	fmt.Printf("trace: %d refs, %.1f%% to flash; no-cache Teff = %.3f cycles\n\n",
		len(pb.Trace), 100*float64(flash)/float64(ram+flash), noCache)

	fmt.Println("config                 miss rate   Teff    saving")
	for _, r := range results {
		// Print the direct-mapped and 8-way corners for each size/line.
		if r.Config.Ways != 1 && r.Config.Ways != 8 {
			continue
		}
		fmt.Printf("%-22s %8.3f%%  %6.3f   -%2.0f%%\n",
			r.Config, r.MissRate()*100, r.TeffPaper(), (1-r.TeffPaper()/noCache)*100)
	}
	fmt.Println("\nEvery configuration halves (or better) the average memory access time,")
	fmt.Println("matching the paper's conclusion for the flash-dominated Palm workload.")
	// Output:
	// collecting session1...
	// replaying 1114 logged events...
	// trace: 2846112 refs, 64.4% to flash; no-cache Teff = 2.287 cycles
	//
	// config                 miss rate   Teff    saving
	// 1KB/16B/1-way/LRU         5.884%   1.135   -50%
	// 1KB/16B/8-way/LRU         4.444%   1.102   -52%
	// 1KB/32B/1-way/LRU         5.941%   1.136   -50%
	// 1KB/32B/8-way/LRU         3.068%   1.070   -53%
	// 2KB/16B/1-way/LRU         4.720%   1.108   -52%
	// 2KB/16B/8-way/LRU         3.867%   1.088   -52%
	// 2KB/32B/1-way/LRU         3.988%   1.091   -52%
	// 2KB/32B/8-way/LRU         2.676%   1.061   -54%
	// 4KB/16B/1-way/LRU         4.178%   1.096   -52%
	// 4KB/16B/8-way/LRU         3.336%   1.076   -53%
	// 4KB/32B/1-way/LRU         2.888%   1.066   -53%
	// 4KB/32B/8-way/LRU         1.758%   1.040   -55%
	// 8KB/16B/1-way/LRU         3.828%   1.088   -52%
	// 8KB/16B/8-way/LRU         3.262%   1.075   -53%
	// 8KB/32B/1-way/LRU         2.325%   1.053   -54%
	// 8KB/32B/8-way/LRU         1.665%   1.038   -55%
	// 16KB/16B/1-way/LRU        2.385%   1.055   -54%
	// 16KB/16B/8-way/LRU        3.169%   1.072   -53%
	// 16KB/32B/1-way/LRU        1.445%   1.033   -55%
	// 16KB/32B/8-way/LRU        1.606%   1.037   -55%
	// 32KB/16B/1-way/LRU        0.578%   1.013   -56%
	// 32KB/16B/8-way/LRU        0.111%   1.003   -56%
	// 32KB/32B/1-way/LRU        0.440%   1.010   -56%
	// 32KB/32B/8-way/LRU        0.071%   1.002   -56%
	// 64KB/16B/1-way/LRU        0.465%   1.011   -56%
	// 64KB/16B/8-way/LRU        0.064%   1.001   -56%
	// 64KB/32B/1-way/LRU        0.321%   1.007   -56%
	// 64KB/32B/8-way/LRU        0.033%   1.001   -56%
	//
	// Every configuration halves (or better) the average memory access time,
	// matching the paper's conclusion for the flash-dominated Palm workload.
}

// Example_overhead reproduces the §2.3.3 measurements: the pen-sampling
// check (the hack must keep up with the digitizer's 50 samples/second)
// and the Figure 3 sweep of per-call hack overhead against activity-log
// size, which grows linearly because the OS memory manager scans the
// record index on every insert.
func Example_overhead() {
	// Pen sampling with the EvtEnqueuePenPoint hack installed.
	pen, err := exp.PenSampling(context.Background(), 10)
	if err != nil {
		fmt.Println("pen sampling:", err)
		return
	}
	fmt.Printf("stylus held for %.0f s: %d pen points logged = %.1f samples/s (paper: 50.0)\n\n",
		pen.Seconds, pen.PenRecords, pen.Rate)

	// Figure 3: per-call overhead vs. database size for all five hacks.
	fmt.Println("per-call hack overhead vs. activity log size (paper Figure 3):")
	points, err := exp.HackOverhead(context.Background(), []int{0, 10000, 20000, 30000, 40000, 50000, 60000})
	if err != nil {
		fmt.Println("hack overhead:", err)
		return
	}
	current := ""
	for _, p := range points {
		if p.Hack != current {
			current = p.Hack
			fmt.Printf("\n  %s:\n", p.Hack)
		}
		fmt.Printf("    %6d records: %6.2f ms/call %s\n", p.Records, p.MillisPer, strings.Repeat("#", int(p.MillisPer)))
	}
	fmt.Println("\nThe paper reports ~6.4 ms/call averaged over 0-10k records and ~15.5 ms")
	fmt.Println("at 50-60k records; limiting sessions to 2-3 days keeps logs below 30k")
	fmt.Println("records and the overhead imperceptible.")
	// Output:
	// stylus held for 10 s: 500 pen points logged = 50.0 samples/s (paper: 50.0)
	//
	// per-call hack overhead vs. activity log size (paper Figure 3):
	//
	//   EvtEnqueueKey:
	//          0 records:   5.40 ms/call #####
	//      10000 records:   7.21 ms/call #######
	//      20000 records:   9.03 ms/call #########
	//      30000 records:  10.85 ms/call ##########
	//      40000 records:  12.67 ms/call ############
	//      50000 records:  14.49 ms/call ##############
	//      60000 records:  16.31 ms/call ################
	//
	//   EvtEnqueuePenPoint:
	//          0 records:   5.40 ms/call #####
	//      10000 records:   7.22 ms/call #######
	//      20000 records:   9.04 ms/call #########
	//      30000 records:  10.85 ms/call ##########
	//      40000 records:  12.67 ms/call ############
	//      50000 records:  14.49 ms/call ##############
	//      60000 records:  16.31 ms/call ################
	//
	//   KeyCurrentState:
	//          0 records:   5.40 ms/call #####
	//      10000 records:   7.21 ms/call #######
	//      20000 records:   9.03 ms/call #########
	//      30000 records:  10.85 ms/call ##########
	//      40000 records:  12.67 ms/call ############
	//      50000 records:  14.49 ms/call ##############
	//      60000 records:  16.31 ms/call ################
	//
	//   SysNotifyBroadcast:
	//          0 records:   5.40 ms/call #####
	//      10000 records:   7.21 ms/call #######
	//      20000 records:   9.03 ms/call #########
	//      30000 records:  10.85 ms/call ##########
	//      40000 records:  12.67 ms/call ############
	//      50000 records:  14.49 ms/call ##############
	//      60000 records:  16.31 ms/call ################
	//
	//   SysRandom:
	//          0 records:   5.40 ms/call #####
	//      10000 records:   7.22 ms/call #######
	//      20000 records:   9.04 ms/call #########
	//      30000 records:  10.86 ms/call ##########
	//      40000 records:  12.67 ms/call ############
	//      50000 records:  14.49 ms/call ##############
	//      60000 records:  16.31 ms/call ################
	//
	// The paper reports ~6.4 ms/call averaged over 0-10k records and ~15.5 ms
	// at 50-60k records; limiting sessions to 2-3 days keeps logs below 30k
	// records and the overhead imperceptible.
}

// Example_gremlins runs POSE-style random-input storms against the
// simulated handheld: three seeded storms hammer the device with random
// taps, strokes, Graffiti and button presses, then each storm's activity
// log is replayed on a fresh machine and both of the paper's validations
// are checked. The deterministic state machine model has to hold even
// for inputs no human would produce. Each storm's final display is
// summarized by its PGM image's size and CRC-32.
func Example_gremlins() {
	for _, seed := range []int64{1, 42, 2005} {
		cfg := gremlin.DefaultConfig(seed)
		cfg.Events = 150
		session := gremlin.Session(cfg)

		fmt.Printf("gremlin #%d: unleashing %d random inputs...\n", seed, cfg.Events)
		col, err := palmsim.Collect(context.Background(), session)
		if err != nil {
			fmt.Printf("gremlin %d crashed the device: %v\n", seed, err)
			return
		}
		pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.ReplayOptions{
			Profiling: true,
			WithHacks: true,
		})
		if err != nil {
			fmt.Printf("gremlin %d crashed the replay: %v\n", seed, err)
			return
		}

		logRep := validate.CorrelateLogs(col.Log, pb.Log)
		stRep := validate.CorrelateStates(col.Final, pb.Final)
		fmt.Printf("  %d log records, log correlation %s, state correlation %s\n",
			col.Log.Len(), verdict(logRep.OK()), verdict(stRep.OK()))

		screen := pb.M.ScreenPGM()
		fmt.Printf("  final screen: %d-byte PGM, CRC-32 %08x\n", len(screen), crc32.ChecksumIEEE(screen))
	}
	fmt.Println("all storms survived and validated.")
	// Output:
	// gremlin #1: unleashing 150 random inputs...
	//   1475 log records, log correlation OK, state correlation OK
	//   final screen: 25615-byte PGM, CRC-32 cf00576b
	// gremlin #42: unleashing 150 random inputs...
	//   1361 log records, log correlation OK, state correlation OK
	//   final screen: 25615-byte PGM, CRC-32 8af32685
	// gremlin #2005: unleashing 150 random inputs...
	//   1617 log records, log correlation OK, state correlation OK
	//   final screen: 25615-byte PGM, CRC-32 f4047407
	// all storms survived and validated.
}

// verdict renders a correlation result.
func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}
