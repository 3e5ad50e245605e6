package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"palmsim/internal/obs"
)

// TestBadTraceFormatBeforeAnyWork: a -trace-format that names no format
// is a usage error raised before the session is collected, so the
// pipeline prints nothing and never creates -out.
func TestBadTraceFormatBeforeAnyWork(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	c := &config{
		sessionNum:  4,
		outDir:      out,
		withTrace:   true,
		traceFormat: "bogus",
		dispatch:    "auto",
		obsFlags:    &obs.Flags{},
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
