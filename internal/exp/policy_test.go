package exp

import (
	"context"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/sweep"
)

// TestSessionTracePolicyDifferential closes the policy-oracle loop on a
// real collected session: the kind-carrying trace a replay produces is
// swept through every single-pass policy family and write policy, and
// the results must match a per-configuration direct simulation bit for
// bit. This is the same differential internal/sweep runs on synthetic
// traces, but over the 68k reference stream the paper's experiments use.
func TestSessionTracePolicyDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("session collect+replay")
	}
	run, err := RunSession(context.Background(), ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	trace, kinds := run.Play.Trace, run.Play.TraceKinds
	if len(kinds) != len(trace) || len(trace) == 0 {
		t.Fatalf("session trace %d refs, %d kinds", len(trace), len(kinds))
	}

	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU, cache.OPT} {
		for _, wp := range []cache.WritePolicy{cache.WriteThrough, cache.WriteBack} {
			cfgs = append(cfgs,
				cache.Config{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: pol, Write: wp},
				cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: pol, Write: wp},
			)
		}
	}

	lines := []int{16, 32}
	anns, err := opt.AnnotateAll(trace, lines)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]cache.Result, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Policy == cache.OPT {
			d, err := opt.NewDirect(cfg, anns[cfg.LineBytes])
			if err != nil {
				t.Fatal(err)
			}
			d.AccessAllKinded(trace, kinds)
			want[i] = d.Result()
		} else {
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.AccessAllKinded(trace, kinds)
			want[i] = c.Result()
		}
	}

	for _, workers := range []int{1, 4} {
		got, err := sweep.Run(context.Background(), cfgs, sweep.NewKindedSliceSource(trace, kinds),
			sweep.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %v diverged on the session trace:\n got %+v\nwant %+v",
					workers, cfgs[i], got[i], want[i])
			}
		}
		if got[0].Writes == 0 {
			t.Error("session trace produced no write references — differential vacuous")
		}
	}
}
