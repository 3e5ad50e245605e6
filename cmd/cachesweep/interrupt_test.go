// Interruption-contract tests: SIGINT mid-sweep must land on the
// documented exit code (3), record "status":"interrupted" in the run
// manifest, and — with -checkpoint — leave a resumable sidecar behind.
// Uses the same re-exec pattern as main_test.go.
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// subproc is a running cachesweep subprocess whose combined output
// accumulates in the background.
type subproc struct {
	cmd  *exec.Cmd
	out  strings.Builder
	done chan struct{} // closed when the output pipe has drained
}

// wait blocks until the output pipe is fully drained and the process
// exits, then returns the exit error and the complete output. The drain
// comes first: Wait closes the pipe, dropping whatever the reader has not
// read yet.
func (s *subproc) wait() (string, error) {
	<-s.done
	err := s.cmd.Wait()
	return s.out.String(), err
}

// startCachesweep re-executes the test binary as cachesweep and returns
// once the given stdout marker has been seen.
func startCachesweep(t *testing.T, args, marker string) *subproc {
	t.Helper()
	s := &subproc{cmd: exec.Command(os.Args[0]), done: make(chan struct{})}
	s.cmd.Env = append(os.Environ(), "CACHESWEEP_ARGS="+args)
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stderr = s.cmd.Stdout // interleave like CombinedOutput
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	seen := make(chan bool, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		notified := false
		for sc.Scan() {
			s.out.WriteString(sc.Text())
			s.out.WriteByte('\n')
			if !notified && strings.Contains(sc.Text(), marker) {
				notified = true
				seen <- true
			}
		}
		if !notified {
			seen <- false
		}
	}()
	select {
	case ok := <-seen:
		if !ok {
			s.cmd.Process.Kill()
			out, _ := s.wait()
			t.Fatalf("subprocess exited before printing %q:\n%s", marker, out)
		}
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		out, _ := s.wait()
		t.Fatalf("subprocess never printed %q:\n%s", marker, out)
	}
	return s
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("subprocess did not run: %v", err)
	}
	return ee.ExitCode()
}

// TestSigintWritesInterruptedManifest is the documented-contract test:
// SIGINT during a sweep exits with code 3 and the manifest says
// "status": "interrupted".
func TestSigintWritesInterruptedManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	// A trace far longer than the test will ever simulate: the sweep is
	// interrupted within a chunk of the signal, long before completion.
	args := fmt.Sprintf("-desktop -refs 500000000 -workers 2 -manifest %s", manifest)
	s := startCachesweep(t, args, "sweep:")
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	out, err := s.wait()
	if code := exitCode(t, err); code != 3 {
		t.Fatalf("exit code = %d, want 3 (interrupted)\n%s", code, out)
	}
	if !strings.Contains(out, "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", out)
	}
	man, rerr := os.ReadFile(manifest)
	if rerr != nil {
		t.Fatalf("manifest not written after SIGINT: %v", rerr)
	}
	if !strings.Contains(string(man), `"status": "interrupted"`) {
		t.Errorf("manifest does not record the interruption:\n%s", man)
	}
}

// TestSigintCheckpointThenResume interrupts a checkpointed sweep, then
// re-runs with -resume over the same trace and expects a clean exit with
// the full results table.
func TestSigintCheckpointThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweeps in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	manifest := filepath.Join(dir, "resume.json")
	base := fmt.Sprintf("-desktop -refs 4000000 -checkpoint %s", ckpt)

	s := startCachesweep(t, base, "sweep:")
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	out, err := s.wait()
	if code := exitCode(t, err); code != 3 {
		t.Fatalf("interrupted run: exit code = %d, want 3\n%s", code, out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint sidecar after SIGINT: %v", err)
	}
	if !strings.Contains(out, "re-run with -resume") {
		t.Errorf("interrupted run does not advertise -resume:\n%s", out)
	}

	full, err := runCachesweep(t, base+" -resume -manifest "+manifest)
	if err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, full)
	}
	if !strings.Contains(full, "56-configuration sweep") {
		t.Errorf("resumed run did not print the results table:\n%s", full)
	}
	man, rerr := os.ReadFile(manifest)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(man), `"status": "ok"`) {
		t.Errorf("resumed run's manifest is not ok:\n%s", man)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("sidecar survived a completed sweep")
	}
}
