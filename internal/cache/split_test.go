package cache

import (
	"math/rand"
	"testing"
)

// randomCuts returns sorted cut points in [0, n] for rng's pieces of up
// to max references, empty pieces included.
func randomCuts(rng *rand.Rand, n, max int) []int {
	var cuts []int
	for at := 0; at < n; {
		at = min(n, at+rng.Intn(max+1))
		cuts = append(cuts, at)
	}
	return cuts
}

// feedPieces feeds refs, and kinds when non-nil, to c in pieces that end
// at each cut, then the rest.
func feedPieces(c *Cache, refs []uint32, kinds []uint8, cuts []int) {
	lo := 0
	for _, hi := range append(cuts, len(refs)) {
		var k []uint8
		if kinds != nil {
			k = kinds[lo:hi]
		}
		c.AccessAllKinded(refs[lo:hi], k)
		lo = hi
	}
}

// TestFieldCodec holds the direct simulator, the sweep's reference unit,
// to split-feed identity on an address-only trace: for every policy, a
// Cache fed the trace in two pieces, cut at every position, ends with
// the counters of one fed it whole.
func TestFieldCodec(t *testing.T) {
	refs, _ := randKinded(700, 3)
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		cfg := Config{SizeBytes: 256, LineBytes: 16, Ways: 4, Policy: pol}
		whole, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		whole.AccessAllKinded(refs, nil)
		for cut := 0; cut <= len(refs); cut++ {
			split, _ := New(cfg)
			feedPieces(split, refs, nil, []int{cut})
			if split.Result() != whole.Result() {
				t.Fatalf("%v cut at %d: %+v, whole %+v", cfg, cut, split.Result(), whole.Result())
			}
		}
	}
}

// TestKindedStateRoundTrip feeds a kinded trace to write-through and
// write-back caches of every policy in random pieces, empty and
// one-reference pieces included, and requires the counters of a cache
// fed it whole, writes and writebacks included.
func TestKindedStateRoundTrip(t *testing.T) {
	refs, kinds := randKinded(40000, 5)
	rng := rand.New(rand.NewSource(6))
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		for _, wp := range []WritePolicy{WriteThrough, WriteBack} {
			c := Config{SizeBytes: 2048, LineBytes: 16, Ways: 4, Policy: pol, Write: wp}
			whole, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			whole.AccessAllKinded(refs, kinds)
			for _, max := range []int{1, 3, 5000} {
				split, _ := New(c)
				feedPieces(split, refs, kinds, randomCuts(rng, len(refs), max))
				if split.Result() != whole.Result() {
					t.Errorf("%v pieces of up to %d: %+v != whole %+v", c, max, split.Result(), whole.Result())
				}
			}
		}
	}
}
