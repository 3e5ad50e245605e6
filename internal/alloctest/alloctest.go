// Package alloctest measures what a decoder allocates, for the tests and
// fuzzers that bound a hostile input's cost by its length rather than by
// what its header declares.
package alloctest

import (
	"math"
	"runtime"
	"testing"
)

// Allocated returns the bytes the heap handed out while f ran
// (runtime.MemStats.TotalAlloc), as the smaller of two runs: an
// allocation another goroutine makes during one run (about 5.5 KB, seen
// under a loaded `go test ./...` and in fuzzing workers) must not count
// against f.
func Allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// CheckAllocs fails t when alloc, the bytes what allocated for an input
// of n bytes, exceeds k·n+c.
func CheckAllocs(t testing.TB, what string, n int, alloc uint64, k, c int) {
	t.Helper()
	if limit := uint64(k*n + c); alloc > limit {
		t.Errorf("%s: allocated %d bytes for a %d-byte input, limit %d", what, alloc, n, limit)
	}
}
