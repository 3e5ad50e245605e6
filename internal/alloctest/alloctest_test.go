package alloctest

import "testing"

// recorder is a testing.TB that records whether Errorf was called.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Errorf(string, ...any) { r.failed = true }

var sink []byte

// TestAllocatedCountsWhatFAllocates: a 1 MiB allocation is counted, and
// a function that allocates nothing measures under the noise of one
// ReadMemStats pair.
func TestAllocatedCountsWhatFAllocates(t *testing.T) {
	if got := Allocated(func() { sink = make([]byte, 1<<20) }); got < 1<<20 {
		t.Errorf("Allocated(1 MiB) = %d", got)
	}
	if got := Allocated(func() {}); got > 1<<10 {
		t.Errorf("Allocated(nothing) = %d", got)
	}
}

// TestCheckAllocsBound: CheckAllocs fails exactly when alloc exceeds
// k·n+c.
func TestCheckAllocsBound(t *testing.T) {
	for _, tc := range []struct {
		alloc uint64
		fail  bool
	}{{0, false}, {2*10 + 5, false}, {2*10 + 6, true}} {
		r := &recorder{TB: t}
		CheckAllocs(r, "decoder", 10, tc.alloc, 2, 5)
		if r.failed != tc.fail {
			t.Errorf("CheckAllocs(alloc %d, limit 25) failed = %v, want %v", tc.alloc, r.failed, tc.fail)
		}
	}
}
