package simerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSentinelMatching(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{Canceled(nil, "emu: run", 42), ErrCanceled},
		{CanceledChunk(nil, "sweep: produce", 7), ErrCanceled},
		{CorruptTrace("dtrace: unpack", 100, errors.New("bad byte")), ErrCorruptTrace},
		{New(ErrDivergence, "crossvalidate", nil), ErrDivergence},
		{New(ErrCorruptState, "alog: unmarshal", errors.New("bad magic")), ErrCorruptState},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("errors.Is(%v, %v) = false", tc.err, tc.want)
		}
		// Wrapping through fmt.Errorf must preserve the match.
		wrapped := fmt.Errorf("outer: %w", tc.err)
		if !errors.Is(wrapped, tc.want) {
			t.Errorf("wrapped errors.Is(%v, %v) = false", wrapped, tc.want)
		}
	}
}

func TestCanceledWrapsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx, "emu: run", 9)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if !IsCanceled(err) {
		t.Errorf("IsCanceled(%v) = false", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	derr := CanceledChunk(dctx, "sweep: produce", 3)
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Errorf("errors.Is(derr, context.DeadlineExceeded) = false for %v", derr)
	}
}

func TestErrorsAsRecoversPosition(t *testing.T) {
	err := fmt.Errorf("replay session 2: %w", Canceled(nil, "emu: run", 12345))
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if se.Tick != 12345 {
		t.Errorf("Tick = %d, want 12345", se.Tick)
	}
	if se.Chunk != -1 || se.Ref != -1 {
		t.Errorf("unset positions = chunk %d ref %d, want -1/-1", se.Chunk, se.Ref)
	}
}

// TestErrorsAsRecoversConfig: a corrupt-trace carrier wrapped twice on
// its way up (decoder → sweep → CLI) still yields the reference count
// it stopped at, with the positions it does not set left at -1.
func TestErrorsAsRecoversConfig(t *testing.T) {
	inner := CorruptTrace("dtrace: unpack", 70_000, errors.New("truncated block"))
	err := fmt.Errorf("cachesweep: %w", fmt.Errorf("sweep: produce: %w", inner))
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if se.Ref != 70_000 {
		t.Errorf("Ref = %d, want 70000", se.Ref)
	}
	if se.Tick != -1 || se.Chunk != -1 {
		t.Errorf("unset positions = tick %d chunk %d, want -1/-1", se.Tick, se.Chunk)
	}
	if !errors.Is(err, ErrCorruptTrace) {
		t.Errorf("errors.Is(%v, ErrCorruptTrace) = false", err)
	}
}

func TestErrorString(t *testing.T) {
	cases := []struct {
		err  *Error
		want []string
	}{
		{Canceled(nil, "emu: run", 7), []string{"emu: run", "run canceled", "at tick 7"}},
		{CanceledChunk(nil, "sweep: produce", 3), []string{"at chunk 3"}},
		{CorruptTrace("dtrace", 88, errors.New("boom")), []string{"corrupt trace", "at ref 88", "boom"}},
		{New(ErrMissingSymbol, "asm", nil), []string{"asm: missing symbol"}},
		{New(ErrCorruptState, "hotsync: unmarshal", errors.New("bad magic")), []string{"hotsync: unmarshal: corrupt state: bad magic"}},
	}
	for _, tc := range cases {
		got := tc.err.Error()
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("Error() = %q missing %q", got, want)
			}
		}
	}
}

func TestIsCanceledOnPlainContextErrors(t *testing.T) {
	if !IsCanceled(context.Canceled) || !IsCanceled(context.DeadlineExceeded) {
		t.Error("IsCanceled must accept the bare context errors")
	}
	if IsCanceled(errors.New("other")) || IsCanceled(nil) {
		t.Error("IsCanceled must reject unrelated errors and nil")
	}
}
