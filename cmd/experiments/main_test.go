package main

import (
	"bytes"
	"context"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"palmsim/internal/obs"
)

// runExperiments drives runMain as main does, with one job and no
// per-job timeout, and returns its exit code and output.
func runExperiments(ctx context.Context, run string, session int) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = runMain(ctx, &out, &errOut, run, session, 1, 0, false)
	return code, out.String(), errOut.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		run     string
		session int
		want    string
	}{
		{"bogus", 1, `unknown experiment "bogus"`},
		{"pen", 5, "session 5 out of range 1-4"},
	} {
		code, stdout, stderr := runExperiments(context.Background(), tc.run, tc.session)
		if code != obs.ExitUsage {
			t.Errorf("-run %s -session %d: exit %d, want %d", tc.run, tc.session, code, obs.ExitUsage)
		}
		if !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("-run %s -session %d: stderr %q, stdout %q; want only %q", tc.run, tc.session, stderr, stdout, tc.want)
		}
	}
}

// TestPenExperiment is E1 through the command: the pen hack records the
// full 50 samples per second.
func TestPenExperiment(t *testing.T) {
	code, stdout, stderr := runExperiments(context.Background(), "pen", 1)
	if code != obs.ExitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "(paper: 50.0/s)") {
		t.Errorf("no pen-sampling table:\n%s", stdout)
	}
	var row []string
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "10" {
			row = f
		}
	}
	if row == nil || row[2] != "50.0" {
		t.Errorf("no 10-second row at 50.0/s:\n%s", stdout)
	}
}

// TestValidateChainExperiment is the §3.1 chained validation through the
// command: each of the three workloads correlates in log and state.
func TestValidateChainExperiment(t *testing.T) {
	code, stdout, stderr := runExperiments(context.Background(), "validate-chain", 1)
	if code != obs.ExitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var ok int
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if strings.Count(line, "[OK]") == 2 && !strings.Contains(line, "FAILED") {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("%d rows with log and state OK, want 3:\n%s", ok, stdout)
	}
}

// TestOpcodesExperiment is the §2.4.2 opcode-usage statistic through the
// command: twenty instruction forms, most executed first.
func TestOpcodesExperiment(t *testing.T) {
	code, stdout, stderr := runExperiments(context.Background(), "opcodes", 1)
	if code != obs.ExitOK {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var counts []int
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && strings.HasPrefix(f[1], "$") && strings.HasSuffix(f[3], "%") {
			n, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			counts = append(counts, n)
		}
	}
	if len(counts) != 20 {
		t.Fatalf("%d opcode rows, want 20:\n%s", len(counts), stdout)
	}
	if !sort.SliceIsSorted(counts, func(i, j int) bool { return counts[i] > counts[j] }) {
		t.Errorf("opcode rows not ordered by count: %v", counts)
	}
}

// TestRunAllCanceled: a canceled context stops -run all before any
// experiment runs; each is reported as canceled and the exit code is the
// documented interrupt code.
func TestRunAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, stdout, stderr := runExperiments(ctx, "all", 1)
	if code != obs.ExitInterrupted {
		t.Errorf("exit %d, want %d", code, obs.ExitInterrupted)
	}
	names := []string{"pen", "fig3", "table1", "fig5", "fig6", "fig7",
		"validate-log", "validate-state", "validate-chain", "opcodes",
		"profiling", "energy", "writepolicy"}
	for _, name := range names {
		if !strings.Contains(stdout, "==== "+name+" ====\n("+name+": canceled") {
			t.Errorf("%s not reported as canceled:\n%s", name, stdout)
		}
	}
	if n := strings.Count(stdout, ": canceled"); n != len(names) {
		t.Errorf("%d experiments reported canceled, want %d", n, len(names))
	}
	if !strings.HasPrefix(stderr, "experiments: ") {
		t.Errorf("stderr %q does not report the interruption", stderr)
	}
}

// TestHelpNamesEveryExperiment: the -run help and the package doc's usage
// line name every experiment of the dispatch table, in its order.
func TestHelpNamesEveryExperiment(t *testing.T) {
	help := runHelp()
	for _, e := range experiments {
		if !strings.Contains(help, e.name+",") {
			t.Errorf("-run help %q does not name %q", help, e.name)
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if want := "//\texperiments -run " + strings.Join(experimentNames(), "|") + "\n"; !strings.Contains(string(src), want) {
		t.Errorf("main.go's package doc lacks the usage line %q", want)
	}
}
