package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"palmsim"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/obs"
	"palmsim/internal/sweep"
)

// TestBadTraceFormatBeforeAnyWork: a -dispatch that names no engine is
// a usage error raised before the session is collected, so the pipeline
// prints nothing and never creates -out.
func TestBadTraceFormatBeforeAnyWork(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	c := &config{
		sessionNum: 4,
		outDir:     out,
		withTrace:  true,
		dispatch:   "bogus",
		obsFlags:   &obs.Flags{},
	}
	var err error
	stdout := captureStdout(t, func() { err = pipeline(context.Background(), c) })
	if !obs.IsUsage(err) {
		t.Errorf("err = %v, want a usage error", err)
	}
	if stdout != "" {
		t.Errorf("printed before rejecting the flag:\n%s", stdout)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-out %s exists after a usage error (stat err %v)", out, err)
	}
}

// TestOutputFlagsBeforeAnyWork: an output flag the run would drop —
// -dinero or -screenshot without -out, or -dinero or -seek-tick without
// the written trace they act on — is a usage error raised before the
// session is collected, so the pipeline prints nothing and never creates
// -out.
func TestOutputFlagsBeforeAnyWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(c *config, out string)
	}{
		{"-dinero without -out", func(c *config, _ string) { c.dinero = true }},
		{"-screenshot without -out", func(c *config, _ string) { c.screenshot = true }},
		{"-dinero -trace=false", func(c *config, out string) { c.outDir, c.dinero, c.withTrace = out, true, false }},
		{"-seek-tick without -out", func(c *config, _ string) { c.seekTick = 1000 }},
		{"-seek-tick -trace=false", func(c *config, out string) { c.outDir, c.seekTick, c.withTrace = out, 1000, false }},
	} {
		out := filepath.Join(t.TempDir(), "out")
		c := &config{sessionNum: 4, withTrace: true, dispatch: "auto", obsFlags: &obs.Flags{}}
		tc.set(c, out)
		var err error
		stdout := captureStdout(t, func() { err = pipeline(context.Background(), c) })
		if !obs.IsUsage(err) {
			t.Errorf("%s: err = %v, want a usage error", tc.name, err)
		}
		if stdout != "" {
			t.Errorf("%s: printed before rejecting the flags:\n%s", tc.name, stdout)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: -out %s exists after a usage error (stat err %v)", tc.name, out, err)
		}
	}
}

// TestPalmsimTraceCarriesKinds: the .ptrace palmsim writes without
// -dinero carries the replay's access kinds, so a write-back sweep over
// the file counts the same writebacks as one over the replay's own
// kinded trace, and not zero (an address-only packed trace reads as all
// fetches).
func TestPalmsimTraceCarriesKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session twice")
	}
	ctx := context.Background()
	out := t.TempDir()
	c := &config{sessionNum: 1, outDir: out, withTrace: true, dispatch: "auto", obsFlags: &obs.Flags{}}
	var err error
	captureStdout(t, func() { err = pipeline(ctx, c) })
	if err != nil {
		t.Fatal(err)
	}

	cfgs := cache.PaperSweep()
	for i := range cfgs {
		cfgs[i].Write = cache.WriteBack
	}
	f, err := os.Open(filepath.Join(out, "session1.ptrace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := dtrace.NewPackedSource(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Run(ctx, cfgs, src, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	s := palmsim.PaperSessions()[0]
	col, err := palmsim.Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := palmsim.Replay(ctx, col.Initial, col.Log, palmsim.ReplayOptions{
		Profiling: true, WithHacks: true, CollectTrace: true, CollectKinds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(ctx, cfgs, sweep.NewKindedSliceSource(pb.Trace, pb.TraceKinds), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var writebacks uint64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v: file sweep %+v, replay sweep %+v", cfgs[i], got[i], want[i])
		}
		writebacks += got[i].Writebacks
	}
	if writebacks == 0 {
		t.Error("write-back sweep over the written .ptrace counted no writebacks")
	}
}

// TestPalmsimTraceIsTheValidationReplay: the .ptrace palmsim writes is
// the trace of its validation replay, which runs with the hacks
// installed. It decodes to a WithHacks replay's addresses and kinds, and
// differs from the hacks-out replay the case study runs
// (DefaultReplayOptions), so a sweep over the file reads slightly
// different miss rates than a sweep over the session.
func TestPalmsimTraceIsTheValidationReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a session twice and replays it three times")
	}
	ctx := context.Background()
	out := t.TempDir()
	c := &config{sessionNum: 2, outDir: out, withTrace: true, dispatch: "auto", obsFlags: &obs.Flags{}}
	var err error
	captureStdout(t, func() { err = pipeline(ctx, c) })
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "session2.ptrace"))
	if err != nil {
		t.Fatal(err)
	}
	addrs, kinds, err := dtrace.UnpackTrace(data)
	if err != nil {
		t.Fatal(err)
	}

	col, err := palmsim.Collect(ctx, palmsim.PaperSessions()[1])
	if err != nil {
		t.Fatal(err)
	}
	hacksIn, err := palmsim.Replay(ctx, col.Initial, col.Log, palmsim.ReplayOptions{
		Profiling: true, WithHacks: true, CollectTrace: true, CollectKinds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(addrs, hacksIn.Trace) || !slices.Equal(kinds, hacksIn.TraceKinds) {
		t.Errorf(".ptrace holds %d references, not the %d of the hacks-in replay", len(addrs), len(hacksIn.Trace))
	}
	hacksOut, err := palmsim.Replay(ctx, col.Initial, col.Log, palmsim.DefaultReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(hacksOut.Trace) >= len(addrs) {
		t.Errorf("hacks-out replay has %d references, want fewer than the .ptrace's %d", len(hacksOut.Trace), len(addrs))
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what f
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = stdout }()
	f()
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
