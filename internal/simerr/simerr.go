// Package simerr is the simulator's structured error taxonomy. Every
// long-running pipeline in the tree — collection, replay, the sweep
// engines — reports failures through a small set of sentinel kinds plus
// an *Error carrier that records where the failure happened (the
// emulated tick, the sweep chunk, the trace reference).
// Callers branch with errors.Is on the sentinels and recover the
// position with errors.As:
//
//	if errors.Is(err, simerr.ErrCanceled) { ... }
//	var se *simerr.Error
//	if errors.As(err, &se) { log.Printf("failed at tick %d", se.Tick) }
//
// The taxonomy replaces both the bare panics the internal packages used
// to contain and the ad-hoc fmt.Errorf strings cancellation-aware
// callers would otherwise have to substring-match.
package simerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Sentinel kinds. An *Error wraps exactly one of these (plus, when
// known, an underlying cause), so errors.Is works on every path.
var (
	// ErrCanceled reports a run stopped by context cancellation or
	// deadline expiry. The carrier also wraps the context's own error,
	// so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) hold as appropriate.
	ErrCanceled = errors.New("run canceled")

	// ErrCorruptTrace reports a trace stream that violates its format:
	// bad magic, truncation, an invalid escape byte.
	ErrCorruptTrace = errors.New("corrupt trace")

	// ErrDivergence reports two engines or two runs that were required
	// to be bit-identical and were not (cross-validation, replay
	// correlation gates).
	ErrDivergence = errors.New("engine divergence")

	// ErrCorruptState reports a device-state file that violates its
	// format: an activity log, a HotSync state or a PDB image that is
	// truncated, has bad magic or bounds, or carries bytes past its end.
	ErrCorruptState = errors.New("corrupt state")

	// ErrMetricConflict reports two subsystems registering the same
	// metric name with incompatible kinds or layouts.
	ErrMetricConflict = errors.New("metric conflict")

	// ErrMissingSymbol reports an assembly symbol that was required but
	// never defined.
	ErrMissingSymbol = errors.New("missing symbol")
)

// Error is the structured carrier: a sentinel kind, the operation that
// failed, the position the pipeline had reached, and the underlying
// cause (if any). The zero values of Tick and Chunk are ambiguous with
// real positions, so both default to -1 ("not applicable") in the
// constructors below.
type Error struct {
	// Kind is one of the package sentinels.
	Kind error
	// Op names the failing operation ("emu: run", "sweep: produce").
	Op string
	// Tick is the emulated tick the machine had reached, or -1.
	Tick int64
	// Chunk is the sweep chunk index being produced, or -1.
	Chunk int64
	// Ref is the trace reference count reached, or -1.
	Ref int64
	// Cause is the underlying error, if any.
	Cause error
}

// New builds a carrier with no position attached.
func New(kind error, op string, cause error) *Error {
	return &Error{Kind: kind, Op: op, Tick: -1, Chunk: -1, Ref: -1, Cause: cause}
}

// Canceled builds an ErrCanceled carrier at an emulated tick. ctx may
// be nil; when it carries an error (context.Canceled or DeadlineExceeded)
// that error becomes the cause, so errors.Is sees it.
func Canceled(ctx context.Context, op string, tick int64) *Error {
	e := New(ErrCanceled, op, nil)
	e.Tick = tick
	if ctx != nil {
		e.Cause = ctx.Err()
	}
	return e
}

// CanceledChunk builds an ErrCanceled carrier at a sweep chunk boundary.
func CanceledChunk(ctx context.Context, op string, chunk int64) *Error {
	e := New(ErrCanceled, op, nil)
	e.Chunk = chunk
	if ctx != nil {
		e.Cause = ctx.Err()
	}
	return e
}

// CorruptTrace builds an ErrCorruptTrace carrier at a reference count.
func CorruptTrace(op string, ref int64, cause error) *Error {
	e := New(ErrCorruptTrace, op, cause)
	e.Ref = ref
	return e
}

// Error renders "op: kind [at tick N|chunk N|ref N][: cause]".
func (e *Error) Error() string {
	var b strings.Builder
	if e.Op != "" {
		b.WriteString(e.Op)
		b.WriteString(": ")
	}
	if e.Kind != nil {
		b.WriteString(e.Kind.Error())
	}
	switch {
	case e.Tick >= 0:
		fmt.Fprintf(&b, " at tick %d", e.Tick)
	case e.Chunk >= 0:
		fmt.Fprintf(&b, " at chunk %d", e.Chunk)
	case e.Ref >= 0:
		fmt.Fprintf(&b, " at ref %d", e.Ref)
	}
	if e.Cause != nil {
		b.WriteString(": ")
		b.WriteString(e.Cause.Error())
	}
	return b.String()
}

// Unwrap exposes both the sentinel kind and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	out := make([]error, 0, 2)
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Cause != nil {
		out = append(out, e.Cause)
	}
	return out
}

// IsCanceled reports whether err is (or wraps) a cancellation: the
// ErrCanceled sentinel or either context error. The CLIs use it to pick
// the "interrupted" exit path.
func IsCanceled(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
