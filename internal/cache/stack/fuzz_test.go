package stack

import (
	"testing"

	"palmsim/internal/cache"
)

// fuzzTrace folds raw fuzz bytes into a mixed-region reference trace with
// deliberately low address entropy (so the fuzzer reaches hits, LRU
// reordering and evictions, not just cold misses): three bytes per
// reference — region/high bits and a 16-bit offset.
func fuzzTrace(data []byte) []uint32 {
	trace := make([]uint32, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		offset := uint32(data[i+1])<<8 | uint32(data[i+2])
		// Two high bits pick RAM low, RAM high, or the flash window; the
		// remaining bits extend the offset so large set counts see
		// conflicts too.
		switch data[i] >> 6 {
		case 0:
			trace = append(trace, offset)
		case 1:
			trace = append(trace, uint32(data[i]&0x3F)<<16|offset)
		default:
			trace = append(trace, 0x10000000+uint32(data[i]&0x1F)<<16|offset)
		}
	}
	return trace
}

// fuzzKinds derives one access kind per fuzzTrace reference from the
// sum of its three bytes, so the fuzzer steers writes as freely as
// addresses.
func fuzzKinds(data []byte) []uint8 {
	kinds := make([]uint8, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		kinds = append(kinds, uint8((int(data[i])+int(data[i+1])+int(data[i+2]))%3))
	}
	return kinds
}

// FuzzStackVsDirect is the stack-engine counterpart of the m68k
// differential fuzzers: any byte string becomes a trace, and the
// single-pass engine must agree with per-config direct simulation on
// every counter of every paper configuration, address-only, and, with
// kinds derived from the same bytes, on both line sizes' mixed
// write-back, write-through and write-ignore plans.
func FuzzStackVsDirect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x00, 0x10, 0x40, 0x01, 0x00})
	f.Add([]byte{0x80, 0x12, 0x34, 0x00, 0x12, 0x34, 0x80, 0x12, 0x34, 0xC0, 0xFF, 0xFF})
	seed := make([]byte, 0, 3*256)
	for i := 0; i < 256; i++ {
		seed = append(seed, byte(i), byte(i*7), byte(i*13))
	}
	f.Add(seed)
	// A line read and then written while MRU at every set count (a
	// write that stops the walk at once), then evicted everywhere by 20
	// lines 64 KB apart, which share its set at every set count: its
	// writebacks show whether the write dirtied every write-back
	// refinement. Kinds are the byte sums mod 3: 0x40+0 reads, 0x40+1
	// writes.
	var writes []byte
	for l := byte(0); l < 4; l++ {
		writes = append(writes, 0x40, l, 0x00, 0x40, l, 0x01)
		for k := byte(1); k <= 20; k++ {
			writes = append(writes, 0x40|k, l, 0x00)
		}
	}
	f.Add(writes)
	cfgs := cache.PaperSweep()
	mixed := append(mixedWritePlan(16), mixedWritePlan(32)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		trace := fuzzTrace(data)
		want, err := cache.Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v diverged over %d refs:\n got %+v\nwant %+v",
					cfgs[i], len(trace), got[i], want[i])
			}
		}
		kinds := fuzzKinds(data)
		want = directKindedSweep(t, mixed, trace, kinds)
		if got, err = SweepKinded(mixed, trace, kinds); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v diverged over %d kinded refs:\n got %+v\nwant %+v",
					mixed[i], len(trace), got[i], want[i])
			}
		}
	})
}
