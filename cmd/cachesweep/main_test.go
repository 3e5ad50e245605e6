// Exit-code contract tests for the cross-validation mode: a sweep whose
// stack and direct engines disagree must terminate with a non-zero status,
// because CI scripts gate on it. The binary under test is this test binary
// re-executed — TestMain dispatches to main() when CACHESWEEP_ARGS is set,
// the standard subprocess pattern for testing os.Exit paths — except for
// the mismatch, which a real run cannot produce: that test feeds perturbed
// results to crossValidateEngines and its error to the run lifecycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/obs"
	"palmsim/internal/prof"
	"palmsim/internal/simerr"
	"palmsim/internal/sweep"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("CACHESWEEP_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTestTrace writes a small address-only packed trace: a few
// interleaved strided streams, enough for every sweep configuration to
// see hits and misses without slowing the test down.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	var trace []uint32
	for i := uint32(0); i < 6000; i++ {
		trace = append(trace, 0x10000+4*i, 0x400000+64*(i%512), 0x10F00000+8*(i%64))
	}
	packed, err := dtrace.PackTrace(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "cross.ptrace", packed)
}

// writeFile writes data to a fresh temporary file and returns its path.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCachesweep re-executes the test binary as the cachesweep command.
func runCachesweep(t *testing.T, args string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CACHESWEEP_ARGS="+args)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// writeTestDin writes a small kind-carrying din trace: a hot loop of
// fetches with interleaved reads and writes over two data regions.
func writeTestDin(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&b, "2 %x\n", 0x10000+4*(i%1024))  // fetch
		fmt.Fprintf(&b, "0 %x\n", 0x400000+64*(i%512)) // read
		fmt.Fprintf(&b, "1 %x\n", 0x500000+16*(i%128)) // write
	}
	path := filepath.Join(t.TempDir(), "kinds.din")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeIndexedPackedTrace writes a small PALMPKD1 trace with a PALMIDX1
// footer, the format palmsim writes packed traces in.
func writeIndexedPackedTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "indexed.ptrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dtrace.NewPackedWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 6000; i++ {
		if err := w.WriteRefs([]uint32{0x10000 + 4*i, 0x400000 + 64*(i%512), 0x10F00000 + 8*(i%64)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPolicyGridWithOPTAndPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -policy LRU,FIFO,PLRU,OPT -pareto -workers 2")
	if err != nil {
		t.Fatalf("policy-grid sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "224-configuration sweep (LRU,FIFO,PLRU,OPT)") {
		t.Errorf("output missing the 4x56 grid title:\n%s", out)
	}
	if !strings.Contains(out, "OPT") || !strings.Contains(out, "PLRU") {
		t.Errorf("output missing policy rows:\n%s", out)
	}
	if !strings.Contains(out, "Pareto front") {
		t.Errorf("output missing the Pareto front:\n%s", out)
	}
}

// TestWritePolicyRejectsAddressOnlyTrace: the synthetic desktop trace
// carries no access kinds, so a write-policy sweep over it is a usage
// error: it exits 2 and says why.
func TestWritePolicyRejectsAddressOnlyTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	out, err := runCachesweep(t, "-desktop -refs 10000 -write-policy back")
	if code := exitCode(t, err); code != 2 {
		t.Fatalf("write-policy sweep over the kindless desktop trace exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "carries no access kinds") {
		t.Errorf("error does not explain the missing kinds:\n%s", out)
	}
}

func TestWritePolicySweepOverDinTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	din := writeTestDin(t)
	out, err := runCachesweep(t, "-din "+din+" -write-policy back -policy LRU,PLRU -workers 2")
	if err != nil {
		t.Fatalf("write-back din sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "write-back") || !strings.Contains(out, "writebacks") {
		t.Errorf("output missing write-back accounting:\n%s", out)
	}
}

// TestFallbackReportedInManifest pins the observability satellite: a
// sweep with direct-fallback configurations must say so on stderr and
// record the count in the run manifest — never silently.
func TestFallbackReportedInManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	manifest := filepath.Join(t.TempDir(), "run.json")
	out, err := runCachesweep(t, "-trace "+trace+" -policy Random -manifest "+manifest)
	if err != nil {
		t.Fatalf("Random sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "fall back to per-config direct simulation") {
		t.Errorf("stderr does not warn about the fallback:\n%s", out)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fallback_configs": "56"`) {
		t.Errorf("manifest does not record the fallback count:\n%s", raw)
	}
	if !strings.Contains(string(raw), "sweep.fallback_configs") {
		t.Errorf("manifest metrics missing the fallback gauge:\n%s", raw)
	}
}

func TestCrossValidatePassesExitZero(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -crossvalidate -workers 2")
	if err != nil {
		t.Fatalf("agreeing engines exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "cross-validation OK") {
		t.Errorf("output does not report cross-validation OK:\n%s", out)
	}
}

// TestCrossValidateMismatchExitsNonZero perturbs one counter in a real
// flat sweep's results and hands them to crossValidateEngines, which must
// name the diverging configuration on stdout and fail with a divergence
// error that the run lifecycle exits ExitFailure for.
func TestCrossValidateMismatchExitsNonZero(t *testing.T) {
	trace := writeTestTrace(t)
	newSource := func() (sweep.Source, io.Closer, error) { return openTraceFile(trace) }
	var hs []cache.Hierarchy
	for _, cfg := range cache.PaperSweep() {
		hs = append(hs, cache.Single(cfg))
	}
	ctx := context.Background()
	opts := sweep.Options{Workers: 2}
	got, err := runHierOnce(ctx, hs, newSource, opts)
	if err != nil {
		t.Fatal(err)
	}
	got[3].Levels[0].Misses++

	stdout := captureStdout(t, func() { err = crossValidateEngines(ctx, hs, newSource, opts, got) })
	if !strings.Contains(stdout, "MISMATCH "+hs[3].L1().String()) {
		t.Errorf("stdout does not name the diverging configuration %v:\n%s", hs[3].L1(), stdout)
	}
	if n := strings.Count(stdout, "MISMATCH"); n != 1 {
		t.Errorf("stdout names %d mismatches, want 1:\n%s", n, stdout)
	}
	if !errors.Is(err, simerr.ErrDivergence) || !strings.Contains(fmt.Sprint(err), "cross-validation FAILED") {
		t.Fatalf("err = %v, want an ErrDivergence reading \"cross-validation FAILED\"", err)
	}

	// The lifecycle main runs, its flags on a fresh flag set so the test can
	// build it more than once. It prints the error after the command name,
	// which the error itself must not repeat.
	saved := flag.CommandLine
	flag.CommandLine = flag.NewFlagSet("cachesweep", flag.ContinueOnError)
	var code int
	stderr := captureFile(t, &os.Stderr, func() {
		profiler, flags := prof.AddFlags(), obs.AddFlags()
		code = flags.Run("cachesweep", profiler, func() error { return err })
	})
	flag.CommandLine = saved
	if code != obs.ExitFailure {
		t.Errorf("exit code = %d, want %d (ExitFailure)", code, obs.ExitFailure)
	}
	if !strings.HasPrefix(stderr, "cachesweep: crossvalidate: ") || strings.Count(stderr, "cachesweep") != 1 {
		t.Errorf("stderr = %q, want the command named once, before the operation", stderr)
	}
}

// TestHierarchySweepAndPareto drives the two-level flags end to end: a
// small L2 grid over the paper's L1 grid, with the hierarchy Pareto
// front printed at the bottom.
func TestHierarchySweepAndPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -l2-sizes 32,64 -l2-assoc 4 -pareto -workers 2")
	if err != nil {
		t.Fatalf("hierarchy sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "112-hierarchy sweep (LRU, nine)") {
		t.Errorf("output missing the 56x2 hierarchy title:\n%s", out)
	}
	if !strings.Contains(out, "shared-L1 groups") {
		t.Errorf("plan line does not report shared-L1 grouping:\n%s", out)
	}
	if !strings.Contains(out, " + 32KB/") && !strings.Contains(out, " + 64KB/") {
		t.Errorf("output missing L1 + L2 hierarchy rows:\n%s", out)
	}
	if !strings.Contains(out, "Pareto front") {
		t.Errorf("output missing the hierarchy Pareto front:\n%s", out)
	}
}

// TestHierarchyWriteBackSweepOverDin exercises the kinded hierarchy path:
// write-back at both levels over a kind-carrying din trace.
func TestHierarchyWriteBackSweepOverDin(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	din := writeTestDin(t)
	out, err := runCachesweep(t, "-din "+din+" -write-policy back -l2-sizes 32 -hierarchy inclusive -workers 2")
	if err != nil {
		t.Fatalf("write-back inclusive hierarchy sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "inclusive, write-back") {
		t.Errorf("title missing content and write policy:\n%s", out)
	}
	if !strings.Contains(out, "mem wr bytes") {
		t.Errorf("output missing memory write traffic column:\n%s", out)
	}
}

// TestPlanDryRun pins the -plan contract: the resolved plan — including
// the hierarchy grouping — is printed and nothing is simulated.
func TestPlanDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -l2-sizes 32,64 -plan")
	if err != nil {
		t.Fatalf("-plan dry run failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"sweep plan (dry run; nothing simulated)",
		"shared-L1 groups",
		"fused hierarchies",
		"max levels",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hierarchy sweep (") {
		t.Errorf("-plan must not print sweep results:\n%s", out)
	}
	// Single-level -plan works too and reports the flat grid.
	out, err = runCachesweep(t, "-trace "+trace+" -policy LRU,OPT -plan")
	if err != nil {
		t.Fatalf("single-level -plan failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sweep plan (dry run; nothing simulated)") {
		t.Errorf("single-level plan output missing summary:\n%s", out)
	}
	if !strings.Contains(out, "buffers trace") {
		t.Errorf("plan output missing OPT buffering field:\n%s", out)
	}
}

// TestPartitionedOptExitsUsage: an indexed packed trace sweeps, exit 0,
// under OPT — which buffers the whole trace — and as a hierarchy sweep;
// -partitions, whose range decoders are gone, -trace-format, since a
// -trace file is always packed, -policies, whose list -policy takes, and
// -checkpoint, -checkpoint-every and -resume, since an interrupted sweep
// is simply run again, are undefined flags and exit 2 (usage).
func TestPartitionedOptExitsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeIndexedPackedTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -policy OPT")
	if err != nil {
		t.Fatalf("OPT sweep over an indexed packed trace failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "56-configuration sweep (OPT)") {
		t.Errorf("OPT sweep output missing results:\n%s", out)
	}
	out, err = runCachesweep(t, "-trace "+trace+" -l2-sizes 32")
	if err != nil {
		t.Fatalf("hierarchy sweep over an indexed packed trace failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "56-hierarchy sweep") {
		t.Errorf("hierarchy sweep output missing results:\n%s", out)
	}

	for _, flag := range []string{"-partitions 2", "-trace-format raw", "-policies LRU",
		"-checkpoint x", "-checkpoint-every 1", "-resume"} {
		out, err = runCachesweep(t, "-trace "+trace+" "+flag)
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: err = %v, want exit 2\n%s", flag, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%s: exit code = %d, want 2 (usage)", flag, code)
		}
		name, _, _ := strings.Cut(flag, " ")
		if !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("%s not rejected as an undefined flag:\n%s", flag, out)
		}
	}
}

// TestUsageErrorsBeforeAnyWork: a flag that cannot run, or that the
// sweep would drop, is rejected before the session is collected, so
// sweepMain prints nothing; so is a -din or -trace file that cannot be
// opened, as a plain failure.
func TestUsageErrorsBeforeAnyWork(t *testing.T) {
	trace := writeTestTrace(t)
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		name  string
		set   func(*config)
		usage bool
	}{
		{"zero L2 size", func(c *config) { c.l2Sizes = "0" }, true},
		{"256-way L2", func(c *config) { c.l2Sizes, c.l2Assoc = "64", "256" }, true},
		{"crossvalidate over hierarchies", func(c *config) { c.l2Sizes, c.crossValidate = "16", true }, true},
		{"-hierarchy and -l2-assoc without -l2-sizes", func(c *config) { c.hierarchy, c.l2Assoc = "inclusive", "8" }, true},
		{"-l2-line without -l2-sizes", func(c *config) { c.l2Line = 64 }, true},
		{"-refs without -desktop", func(c *config) { c.refs = 1000 }, true},
		{"-desktop and -trace", func(c *config) { c.sessionNum, c.desktop, c.traceFile = 0, true, trace }, true},
		{"-session and -din", func(c *config) { c.dinFile = missing }, true},
		{"no trace source", func(c *config) { c.sessionNum = 0 }, true},
		{"-session 5", func(c *config) { c.sessionNum = 5 }, true},
		{"-write-policy over -desktop", func(c *config) { c.sessionNum, c.desktop, c.writePolicy = 0, true, "back" }, true},
		{"missing -din file", func(c *config) { c.sessionNum, c.dinFile = 0, missing }, false},
		{"missing -trace file", func(c *config) { c.sessionNum, c.traceFile = 0, missing }, false},
	} {
		c := config{sessionNum: 4, policy: "LRU", algo: "auto", l2Assoc: "4", hierarchy: "nine", obsFlags: &obs.Flags{}}
		tc.set(&c)
		var err error
		stdout := captureStdout(t, func() { err = sweepMain(context.Background(), &c) })
		if err == nil || obs.IsUsage(err) != tc.usage {
			t.Errorf("%s: err = %v, want an error that is a usage error: %v", tc.name, err, tc.usage)
		}
		if stdout != "" {
			t.Errorf("%s: printed before rejecting the flags:\n%s", tc.name, stdout)
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what f
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	return captureFile(t, &os.Stdout, f)
}

// captureFile returns what f writes to *file (os.Stdout or os.Stderr).
func captureFile(t *testing.T, file **os.File, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "capture")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := *file
	*file = tmp
	defer func() { *file = saved }()
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

// openFDs counts this process's open descriptors; it skips the test
// where /proc/self/fd does not exist.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	return len(ents)
}

// TestSweepClosesTraceFiles runs sweeps in-process and counts the open
// descriptors around each: every file a sweep opens — the -trace header
// probe, both passes of a -crossvalidate run, a raw PALMTRC1 file or
// any other file that is not a packed trace — must be closed by the
// time sweepMain returns. The GC stays off, so no *os.File finalizer
// closes a leaked file behind the count.
func TestSweepClosesTraceFiles(t *testing.T) {
	openFDs(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bad := writeFile(t, "bad.trace", []byte("GARBAGE1 not a trace"))
	raw := writeRawTrace(t, seekTestTrace(2_003))
	plain, packed, din := writeTestTrace(t), writeIndexedPackedTrace(t), writeTestDin(t)
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null // the sweep tables are not under test
	defer func() { os.Stdout = stdout }()

	for _, tc := range []struct {
		name    string
		c       config
		wantErr bool
	}{
		{"PALMTRC1 magic", config{traceFile: raw}, true},
		{"packed", config{traceFile: packed}, false},
		{"din", config{dinFile: din}, false},
		{"crossvalidate", config{traceFile: plain, crossValidate: true}, false},
		{"bad magic", config{traceFile: bad}, true},
	} {
		c := tc.c
		c.policy, c.algo, c.l2Assoc, c.hierarchy = "LRU", "auto", "4", "nine"
		c.obsFlags = &obs.Flags{}
		before := openFDs(t)
		err := sweepMain(context.Background(), &c)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want an error: %v", tc.name, err, tc.wantErr)
		}
		if after := openFDs(t); after != before {
			t.Errorf("%s: %d open descriptors before the sweep, %d after", tc.name, before, after)
		}
	}
}
