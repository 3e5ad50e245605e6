package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"palmsim/internal/obs"
	"palmsim/internal/simerr"
)

// recorder makes stub experiments that log each call they get.
type recorder struct{ calls []string }

// stub returns an experiment that records "name/session", writes
// "name output\n" and returns err.
func (r *recorder) stub(name string, err error) experiment {
	return experiment{name, func(_ context.Context, w io.Writer, session int) error {
		r.calls = append(r.calls, fmt.Sprintf("%s/%d", name, session))
		fmt.Fprintf(w, "%s output\n", name)
		return err
	}}
}

// ran lists the recorded calls, space-separated.
func (r *recorder) ran() string { return strings.Join(r.calls, " ") }

// section is one experiment's part of -run all's stdout.
func section(name, body string) string { return "==== " + name + " ====\n" + body + "\n" }

// canceledSection is the section of an experiment the suite did not run.
func canceledSection(name string, err error) string {
	return section(name, fmt.Sprintf("(%s: canceled: %v)\n", name, err))
}

// tableEntry returns the dispatch table's experiment called name.
func tableEntry(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range experiments {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return experiment{}
}

// TestAllSucceedInInputOrder: -run all runs the table in order and
// prints one section per experiment, holding exactly what it wrote.
func TestAllSucceedInInputOrder(t *testing.T) {
	var r recorder
	var table []experiment
	var want strings.Builder
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("e%d", i)
		table = append(table, r.stub(name, nil))
		want.WriteString(section(name, name+" output\n"))
	}
	code, stdout, stderr := runTable(context.Background(), table, "all", 1)
	if code != obs.ExitOK || stderr != "" {
		t.Errorf("exit %d, stderr %q; want %d and nothing", code, stderr, obs.ExitOK)
	}
	if stdout != want.String() {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want.String())
	}
	if got, want := r.ran(), "e0/1 e1/1 e2/1 e3/1 e4/1"; got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestFailFastCancelsRemaining: when the third of five experiments
// fails, its section ends with the error, the fourth and fifth never
// run and read as canceled, and the exit code is 1.
func TestFailFastCancelsRemaining(t *testing.T) {
	var r recorder
	table := []experiment{r.stub("a", nil), r.stub("b", nil), r.stub("c", errors.New("boom")),
		r.stub("d", nil), r.stub("e", nil)}
	code, stdout, _ := runTable(context.Background(), table, "all", 1)
	if code != obs.ExitFailure {
		t.Errorf("exit %d, want %d", code, obs.ExitFailure)
	}
	want := section("a", "a output\n") + section("b", "b output\n") +
		section("c", "c output\n(c: failed: boom)\n") +
		canceledSection("d", context.Canceled) + canceledSection("e", context.Canceled)
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if got, want := r.ran(), "a/1 b/1 c/1"; got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestKeepGoingRunsEverything: -run all over the real dispatch table
// runs every experiment to the end: it exits 0, and every section, in
// table order, holds output and reads neither failed nor canceled.
func TestKeepGoingRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	code, stdout, stderr := runExperiments(context.Background(), "all", 1)
	if code != obs.ExitOK || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	sections := strings.Split(stdout, "==== ")[1:]
	if len(sections) != len(experiments) {
		t.Fatalf("%d sections, want %d:\n%s", len(sections), len(experiments), stdout)
	}
	for i, s := range sections {
		name := experiments[i].name
		header, body, _ := strings.Cut(s, "\n")
		if header != name+" ====" {
			t.Errorf("section %d is %q, want %q", i, header, name)
		}
		if strings.TrimSpace(body) == "" {
			t.Errorf("%s printed nothing", name)
		}
		if strings.Contains(body, "("+name+": failed") || strings.Contains(body, "("+name+": canceled") {
			t.Errorf("%s did not complete:\n%s", name, body)
		}
	}
}

// TestParentCancellation: an interrupt mid-suite (a stub cancels the
// context, as SIGINT does) ends the running section with that
// experiment's error, leaves the earlier sections complete, runs
// nothing after it, and exits 3.
func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r recorder
	interrupted := experiment{"c", func(ctx context.Context, w io.Writer, _ int) error {
		fmt.Fprintln(w, "c partial")
		cancel()
		return simerr.Canceled(ctx, "c: run", 7)
	}}
	table := []experiment{r.stub("a", nil), r.stub("b", nil), interrupted, r.stub("d", nil), r.stub("e", nil)}
	code, stdout, stderr := runTable(ctx, table, "all", 1)
	if code != obs.ExitInterrupted {
		t.Errorf("exit %d, want %d", code, obs.ExitInterrupted)
	}
	want := section("a", "a output\n") + section("b", "b output\n") +
		section("c", "c partial\n(c: canceled: c: run: run canceled at tick 7: context canceled)\n") +
		canceledSection("d", context.Canceled) + canceledSection("e", context.Canceled)
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if want := "experiments: run all: run canceled: context canceled\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if got, want := r.ran(), "a/1 b/1"; got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestPerJobTimeout: a context deadline that expires mid-suite ends it
// as an interrupt does, with "context deadline exceeded": the
// experiment waiting on it reports the deadline, the later ones never
// run, and the exit code is 3.
func TestPerJobTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var r recorder
	slow := experiment{"slow", func(ctx context.Context, _ io.Writer, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	}}
	table := []experiment{r.stub("a", nil), slow, r.stub("b", nil)}
	code, stdout, stderr := runTable(ctx, table, "all", 1)
	if code != obs.ExitInterrupted {
		t.Errorf("exit %d, want %d", code, obs.ExitInterrupted)
	}
	want := section("a", "a output\n") + canceledSection("slow", context.DeadlineExceeded) +
		canceledSection("b", context.DeadlineExceeded)
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if want := "experiments: run all: run canceled: context deadline exceeded\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if got, want := r.ran(), "a/1"; got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestRetryWithBackoffThenSuccess: -run all runs each experiment exactly
// once, in table order, and hands each the -session number.
func TestRetryWithBackoffThenSuccess(t *testing.T) {
	for _, session := range []int{1, 4} {
		var r recorder
		table := []experiment{r.stub("a", nil), r.stub("b", nil), r.stub("c", nil)}
		if code, _, stderr := runTable(context.Background(), table, "all", session); code != obs.ExitOK {
			t.Fatalf("-session %d: exit %d, stderr %q", session, code, stderr)
		}
		want := fmt.Sprintf("a/%d b/%d c/%d", session, session, session)
		if got := r.ran(); got != want {
			t.Errorf("-session %d: ran %q, want %q", session, got, want)
		}
	}
}

// TestRetriesExhaustedIsJobFailed: a failed experiment runs once and its
// error reaches stderr once, prefixed "experiments: " and naming the
// experiment, and the exit code is 1, also when the error wraps a
// context error of the experiment's own while the suite's context is
// live.
func TestRetriesExhaustedIsJobFailed(t *testing.T) {
	for _, failure := range []error{
		errors.New("always"),
		fmt.Errorf("own deadline: %w", context.DeadlineExceeded),
	} {
		var r recorder
		table := []experiment{r.stub("a", nil), r.stub("doomed", failure), r.stub("b", nil)}
		code, stdout, stderr := runTable(context.Background(), table, "all", 1)
		if code != obs.ExitFailure {
			t.Errorf("%v: exit %d, want %d", failure, code, obs.ExitFailure)
		}
		if want := "experiments: doomed: " + failure.Error() + "\n"; stderr != want {
			t.Errorf("stderr %q, want %q", stderr, want)
		}
		if n := strings.Count(stdout, failure.Error()); n != 1 {
			t.Errorf("%v: stdout names the error %d times, want once:\n%s", failure, n, stdout)
		}
		if got, want := r.ran(), "a/1 doomed/1"; got != want {
			t.Errorf("%v: ran %q, want %q", failure, got, want)
		}
	}
}

// TestPermanentErrorSkipsRetries: a -session out of range is a usage
// error found before the suite starts: -run all -session 9 runs no
// experiment, prints nothing to stdout and exits 2.
func TestPermanentErrorSkipsRetries(t *testing.T) {
	var r recorder
	table := []experiment{r.stub("a", nil), r.stub("b", nil)}
	code, stdout, stderr := runTable(context.Background(), table, "all", 9)
	if code != obs.ExitUsage {
		t.Errorf("exit %d, want %d", code, obs.ExitUsage)
	}
	if stdout != "" || r.ran() != "" {
		t.Errorf("ran %q and printed %q before rejecting -session 9", r.ran(), stdout)
	}
	if want := "experiments: session 9 out of range 1-4\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}

// TestObsGaugesSettle: no goroutine outlives -run all, whether the suite
// succeeds, fails or is interrupted. fig7's desktop sweep starts worker
// goroutines; the interrupt lands in it or in pen before it.
func TestObsGaugesSettle(t *testing.T) {
	pen, fig7 := tableEntry(t, "pen"), tableEntry(t, "fig7")
	boom := experiment{"boom", func(context.Context, io.Writer, int) error { return errors.New("boom") }}
	for _, tc := range []struct {
		name      string
		table     []experiment
		interrupt time.Duration // after this long; 0 never
		want      int
	}{
		{"success", []experiment{pen, fig7}, 0, obs.ExitOK},
		{"failure", []experiment{pen, boom, fig7}, 0, obs.ExitFailure},
		{"interrupt", []experiment{pen, fig7, pen}, 50 * time.Millisecond, obs.ExitInterrupted},
	} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		if tc.interrupt > 0 {
			time.AfterFunc(tc.interrupt, cancel)
		}
		code, _, stderr := runTable(ctx, tc.table, "all", 1)
		cancel()
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.want, stderr)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines alive after -run all, %d before", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
