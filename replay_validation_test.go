// End-to-end golden validation: a gremlin input storm is recorded on the
// instrumented device (S_user), its artifacts are serialized and re-parsed
// exactly as if they had been transferred off the handheld, the session is
// replayed on a fresh machine (S_emulated), and both §3 correlations must
// hold — the activity logs matching record for record within the burst
// tolerance, and the final states differing only in the field-level
// exceptions the paper attributes to the import/export procedure (the
// three date fields, plus psysLaunchDB).
package palmsim

import (
	"context"
	"testing"

	"palmsim/internal/gremlin"
	"palmsim/internal/obs"
	"palmsim/internal/pdb"
	"palmsim/internal/validate"
)

// gremlinConfig keeps the storm short enough for CI while still exercising
// taps, strokes, Graffiti, buttons, notifications, card events and serial
// input (the five paper hacks plus the two future-work hacks all fire).
func gremlinConfig() gremlin.Config {
	return gremlin.Config{Seed: 20260805, Events: 120, MaxThinkTicks: 60}
}

func TestGremlinReplayValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end session in -short mode")
	}
	reg := obs.NewRegistry()
	s := gremlin.Session(gremlinConfig())
	col, err := CollectObserved(context.Background(), s, reg)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if col.Log.Len() == 0 {
		t.Fatal("gremlin session produced an empty activity log")
	}

	// Serialize and re-parse every artifact, as §2.3's HotSync transfer
	// does: replay must work from the on-disk forms, not shared pointers.
	initial, err := UnmarshalState(col.Initial.Marshal())
	if err != nil {
		t.Fatalf("initial state round-trip: %v", err)
	}
	logParsed, err := UnmarshalLog(col.Log.Marshal())
	if err != nil {
		t.Fatalf("activity log round-trip: %v", err)
	}
	wantFinal, err := UnmarshalState(col.Final.Marshal())
	if err != nil {
		t.Fatalf("final state round-trip: %v", err)
	}

	pb, err := Replay(context.Background(), initial, logParsed, ReplayOptions{
		Profiling:    true,
		WithHacks:    true,
		CollectTrace: true,
		Obs:          reg,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}

	// §3.3: activity-log correlation must hold exactly.
	logRep := validate.CorrelateLogs(logParsed, pb.Log)
	if !logRep.OK() {
		t.Errorf("log correlation failed: %s\nproblems: %v", logRep, logRep.Problems)
	}
	if logRep.PenMatched == 0 {
		t.Error("no pen events correlated; vacuous validation")
	}
	if logRep.MaxTickSkew >= validate.BurstTolerance {
		t.Errorf("max skew %d ticks >= burst tolerance %d", logRep.MaxTickSkew, validate.BurstTolerance)
	}

	// §3.4: final-state correlation, with the exception set checked
	// field by field — every diff must be one of the three date fields
	// or on psysLaunchDB, and nothing else.
	stRep := validate.CorrelateStates(wantFinal, pb.Final)
	if !stRep.OK() {
		t.Errorf("state correlation failed: %s\nunexpected: %v", stRep, stRep.UnexpectedDiffs())
	}
	if len(stRep.MissingInReplay) != 0 || len(stRep.ExtraInReplay) != 0 {
		t.Errorf("database sets diverged: missing=%v extra=%v",
			stRep.MissingInReplay, stRep.ExtraInReplay)
	}
	expectedFields := map[string]bool{
		"CREATION DATE":     true,
		"MODIFICATION DATE": true,
		"LAST BACKUP DATE":  true,
	}
	for _, d := range stRep.Diffs {
		if d.DB == "psysLaunchDB" {
			continue
		}
		if !expectedFields[d.Field] {
			t.Errorf("diff outside the §3.4 exception set: %v", d)
		}
		if !pdb.DateFields[d.Field] {
			t.Errorf("exception set drifted from pdb.DateFields: %v", d)
		}
	}
	if len(stRep.UnexpectedDiffs()) != 0 {
		t.Errorf("unexpected diffs: %v", stRep.UnexpectedDiffs())
	}

	// The replay machine's metrics flowed into the shared registry: the
	// collection machine registered first, the replay machine rebound the
	// funcs (last wins), and the hack counters accumulated across both.
	snap := reg.Snapshot()
	byName := map[string]float64{}
	for _, smp := range snap {
		byName[smp.Name] = smp.Value
	}
	if byName["emu.instructions"] != float64(pb.Stats.Machine.Instructions) {
		t.Errorf("emu.instructions = %v, want replay machine's %d (func rebinding broken)",
			byName["emu.instructions"], pb.Stats.Machine.Instructions)
	}
	if byName["kernel.hack_records"] == 0 {
		t.Error("kernel.hack_records metric is zero after an instrumented session")
	}
	if byName["hack.max_latency_us"] <= 0 {
		t.Error("hack.max_latency_us never observed")
	}
	// The §2.1 budget: no logging call may cost more than 10 ms of
	// device time. A gremlin storm with a growing activity log is the
	// worst case this suite generates, so enforce it outright.
	if byName["hack.budget_exceeded"] != 0 {
		t.Errorf("%v hack calls exceeded the 10 ms budget (max %v us)",
			byName["hack.budget_exceeded"], byName["hack.max_latency_us"])
	}

	// The default dispatch is the specialized block engine: the PR 8
	// metrics must show specialized closures carrying the bulk of the
	// work and the chain links actually being followed. The share floor
	// guards the spec engine's traffic rule (spec.go): this storm
	// measures about 0.9945, so dropping the handler of any form that
	// carries 0.5% or more of the instructions fails here.
	if byName["m68k.spec.exec"] == 0 {
		t.Error("m68k.spec.exec is zero under the default (spec) dispatch")
	}
	if share := byName["m68k.spec.share"]; share < 0.99 {
		t.Errorf("m68k.spec.share = %v, want >= 0.99 (specializer missing the hot families)", share)
	}
	if byName["m68k.chain.follows"] == 0 {
		t.Error("m68k.chain.follows is zero: successor links never followed")
	}
	if _, ok := byName["emu.image.reuses"]; !ok {
		t.Error("emu.image.reuses metric not registered")
	}
}

// TestGremlinReplayIsDeterministic replays the same gremlin artifacts
// twice and requires bit-identical logs — distinguishing replay divergence
// (a simulator bug) from the benign import/export diffs the golden test
// tolerates.
func TestGremlinReplayIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end session in -short mode")
	}
	cfg := gremlinConfig()
	cfg.Events = 40 // shorter storm: this test replays twice
	col, err := Collect(context.Background(), gremlin.Session(cfg))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	opt := ReplayOptions{Profiling: true, WithHacks: true}
	a, err := Replay(context.Background(), col.Initial, col.Log, opt)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	b, err := Replay(context.Background(), col.Initial, col.Log, opt)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if a.Log.Len() != b.Log.Len() {
		t.Fatalf("replays diverged: %d vs %d log records", a.Log.Len(), b.Log.Len())
	}
	for i := range a.Log.Records {
		if a.Log.Records[i] != b.Log.Records[i] {
			t.Fatalf("replay log record %d differs: %+v vs %+v",
				i, a.Log.Records[i], b.Log.Records[i])
		}
	}
	if a.Stats.Machine.Instructions != b.Stats.Machine.Instructions {
		t.Errorf("replay instruction counts differ: %d vs %d",
			a.Stats.Machine.Instructions, b.Stats.Machine.Instructions)
	}
}
