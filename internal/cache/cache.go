// Package cache implements the trace-driven cache simulator of the
// paper's §4 case study: set-associative caches with LRU replacement (plus
// FIFO and random as ablation extensions), driven by the memory-reference
// traces the emulator collects, producing the miss rates of Figure 5 and
// the average effective memory access times of Figure 6 (Equations 1-3).
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"palmsim/internal/bus"
)

// Policy selects the replacement algorithm.
type Policy uint8

// Replacement policies. The paper uses LRU exclusively; FIFO and Random
// exist for the ablation benchmark. PLRU is the tree pseudo-LRU found in
// real embedded parts, and OPT is Belady's MIN — the offline optimal that
// bounds every other policy from below. OPT needs future knowledge, so
// the direct Cache rejects it; the opt package implements it with a
// two-pass next-use annotation.
const (
	LRU Policy = iota
	FIFO
	Random
	PLRU
	OPT
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case PLRU:
		return "PLRU"
	case OPT:
		return "OPT"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy converts a case-insensitive policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "LRU":
		return LRU, nil
	case "FIFO":
		return FIFO, nil
	case "RANDOM", "RAND":
		return Random, nil
	case "PLRU":
		return PLRU, nil
	case "OPT", "MIN", "BELADY":
		return OPT, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q (want LRU, FIFO, Random, PLRU, or OPT)", s)
}

// WritePolicy selects how write references are accounted. All variants
// are write-allocate, so the replacement state — and therefore every
// hit/miss counter — is identical across write policies; only the
// write-traffic bookkeeping differs.
type WritePolicy uint8

// Write policies. WriteIgnore is the zero value and reproduces the
// paper's read-latency-only accounting.
const (
	WriteIgnore WritePolicy = iota
	WriteThrough
	WriteBack
)

func (w WritePolicy) String() string {
	switch w {
	case WriteIgnore:
		return "ignore"
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(w))
	}
}

// ParseWritePolicy converts a case-insensitive write-policy name.
func ParseWritePolicy(s string) (WritePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ignore", "none":
		return WriteIgnore, nil
	case "through", "write-through", "wt":
		return WriteThrough, nil
	case "back", "write-back", "wb":
		return WriteBack, nil
	}
	return 0, fmt.Errorf("cache: unknown write policy %q (want ignore, through, or back)", s)
}

// Access kinds carried by kinded traces, matching internal/m68k's Access
// encoding byte-for-byte (asserted in tests so the packages cannot
// drift).
const (
	KindFetch uint8 = 0
	KindRead  uint8 = 1
	KindWrite uint8 = 2
)

// IsWrite reports whether a trace kind byte denotes a data write.
func IsWrite(kind uint8) bool { return kind == KindWrite }

// Config describes one cache configuration.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Policy    Policy
	Write     WritePolicy
}

func (c Config) String() string {
	s := fmt.Sprintf("%dKB/%dB/%d-way/%s", c.SizeBytes/1024, c.LineBytes, c.Ways, c.Policy)
	switch c.Write {
	case WriteThrough:
		s += "/WT"
	case WriteBack:
		s += "/WB"
	}
	return s
}

// MaxWays is the widest associativity a configuration may have: the
// engines keep per-line ranks, FIFO insertion pointers and LRU
// write-back depth bounds in one byte each.
const MaxWays = 128

// Validate checks the configuration for coherence.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive parameter in %v", c)
	case bits.OnesCount(uint(c.SizeBytes)) != 1:
		return fmt.Errorf("cache: size %d not a power of two", c.SizeBytes)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case bits.OnesCount(uint(c.Ways)) != 1:
		return fmt.Errorf("cache: associativity %d not a power of two", c.Ways)
	case c.Ways > MaxWays:
		return fmt.Errorf("cache: associativity %d exceeds the %d-way limit", c.Ways, MaxWays)
	case c.SizeBytes < c.LineBytes*c.Ways:
		return fmt.Errorf("cache: %v has fewer than one set", c)
	case c.Policy > OPT:
		return fmt.Errorf("cache: unknown policy %d", c.Policy)
	case c.Write > WriteBack:
		return fmt.Errorf("cache: unknown write policy %d", c.Write)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// IndexShift returns the right-shift that drops a reference's byte offset
// within a line, i.e. log2(LineBytes). addr >> IndexShift() is the line
// number; its low bits select the set.
func (c Config) IndexShift() uint { return uint(bits.TrailingZeros(uint(c.LineBytes))) }

// TagShift returns the right-shift that drops both the byte offset and the
// set index, i.e. log2(LineBytes) + log2(Sets). addr >> TagShift() is the
// tag. Both shifts are computed once per configuration so the per-access
// path never recounts bits.
func (c Config) TagShift() uint { return c.IndexShift() + uint(bits.TrailingZeros(uint(c.Sets()))) }

// PaperSweep returns the 56 configurations of the case study: cache sizes
// 1-64 KB, line sizes 16 and 32 bytes, associativities 1-8, LRU.
func PaperSweep() []Config {
	var out []Config
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		for _, line := range []int{16, 32} {
			for _, ways := range []int{1, 2, 4, 8} {
				out = append(out, Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: LRU})
			}
		}
	}
	return out
}

// Memory latencies in CPU cycles (§4.2).
const (
	THit       = 1.0
	TRAMMiss   = float64(bus.RAMCycles)
	TFlashMiss = float64(bus.FlashCycles)
)

// Result summarizes one simulation.
type Result struct {
	Config Config

	Accesses    uint64
	Misses      uint64
	RAMRefs     uint64
	FlashRefs   uint64
	RAMMisses   uint64
	FlashMisses uint64

	// Write-policy accounting, populated only by the kinded access paths
	// (AccessKind and the kinded sweep engines). Writes counts write
	// references regardless of write policy; Writebacks counts dirty-line
	// evictions and is nonzero only under WriteBack.
	Writes     uint64
	Writebacks uint64
}

// WriteTrafficBytes returns the memory write traffic implied by the
// configuration's write policy: every write propagates as one 16-bit bus
// transaction under write-through; dirty evictions flush whole lines
// under write-back. WriteIgnore carries no write traffic.
func (r Result) WriteTrafficBytes() uint64 {
	switch r.Config.Write {
	case WriteThrough:
		return r.Writes * 2
	case WriteBack:
		return r.Writebacks * uint64(r.Config.LineBytes)
	}
	return 0
}

// MissRate returns misses/accesses.
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// TeffPaper computes Equation 2 of the paper: the average effective memory
// access time using a single global miss rate weighted by the RAM/flash
// reference mix, with T_hit = 1, T_RAMmiss = 1 and T_flashmiss = 3.
func (r Result) TeffPaper() float64 {
	if r.Accesses == 0 {
		return 0
	}
	mr := r.MissRate()
	fRAM := float64(r.RAMRefs) / float64(r.Accesses)
	fFlash := float64(r.FlashRefs) / float64(r.Accesses)
	return THit + fRAM*mr*TRAMMiss + fFlash*mr*TFlashMiss
}

// TeffExact computes the access time from the per-region miss counts (an
// extension: the paper's Equation 2 assumes the miss rate is uniform
// across regions).
func (r Result) TeffExact() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return THit + (float64(r.RAMMisses)*TRAMMiss+float64(r.FlashMisses)*TFlashMiss)/float64(r.Accesses)
}

// TeffWriteAware extends TeffExact with the write policy's memory
// traffic: every 16-bit bus transfer of write-through or write-back
// traffic (WriteTrafficBytes) occupies the bus for one RAM-class cycle,
// amortized over all accesses. Under WriteIgnore it equals TeffExact.
func (r Result) TeffWriteAware() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.TeffExact() + float64(r.WriteTrafficBytes()/2)*TRAMMiss/float64(r.Accesses)
}

// NoCacheTeff computes Equation 3 — the cacheless average access time —
// from a reference mix.
func NoCacheTeff(ramRefs, flashRefs uint64) float64 {
	total := ramRefs + flashRefs
	if total == 0 {
		return 0
	}
	return (float64(ramRefs)*TRAMMiss + float64(flashRefs)*TFlashMiss) / float64(total)
}

// Cache is one simulated cache instance.
//
// The per-way state is a single flat array of line numbers (biased by +1
// so 0 means invalid). Because the set index is itself a function of the
// line number, two lines mapping to the same set have equal tags exactly
// when the full line numbers are equal — so the probe needs one compare
// against one array instead of a valid-bit test plus a tag compare against
// two, and the tag extraction shift disappears from the access path
// entirely. The sweep runs 56 of these in lockstep per trace element, so
// the probe loop is the hottest code in the cache study.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint32
	waysMask  uint32
	lines     []uint32 // sets*ways entries: line number + 1; 0 = invalid
	order     []uint8  // per-line LRU/FIFO rank (0 = most recent / newest)
	plru      []uint8  // per-set PLRU tree bits (PLRU policy only)
	dirty     []bool   // per-line dirty bits (WriteBack policy only)
	ways      int
	randState uint32
	res       Result
}

// New creates a cache for the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == OPT {
		return nil, fmt.Errorf("cache: %v requires future knowledge; use the opt package engines", cfg)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lineShift: cfg.IndexShift(),
		setMask:   uint32(sets - 1),
		waysMask:  uint32(cfg.Ways - 1),
		lines:     make([]uint32, sets*cfg.Ways),
		order:     make([]uint8, sets*cfg.Ways),
		ways:      cfg.Ways,
		randState: 0x2005,
	}
	if cfg.Policy == PLRU {
		c.plru = make([]uint8, sets)
	}
	if cfg.Write == WriteBack {
		c.dirty = make([]bool, sets*cfg.Ways)
	}
	// Ranks form a permutation within each set; promote preserves that
	// invariant, so initialize it here.
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			c.order[s*cfg.Ways+w] = uint8(w)
		}
	}
	c.res.Config = cfg
	return c, nil
}

// Result returns the statistics accumulated so far.
func (c *Cache) Result() Result { return c.res }

// Access performs one reference. It returns true on a hit.
func (c *Cache) Access(addr uint32) bool {
	// The bus's unsigned-wrap flash window test (the RAM region and the
	// ROM window are disjoint).
	isFlash := addr-bus.ROMBase < bus.ROMSize
	c.res.Accesses++
	if isFlash {
		c.res.FlashRefs++
	} else {
		c.res.RAMRefs++
	}

	line := addr >> c.lineShift
	si := int(line & c.setMask)
	base := si * c.ways
	key := line + 1

	// Probe. The re-slice bounds the loop for the compiler, eliminating
	// per-iteration bounds checks.
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			switch c.cfg.Policy {
			case LRU:
				c.promote(base, w)
			case PLRU:
				c.plru[si] = PLRUTouch(c.plru[si], c.ways, w)
			}
			return true
		}
	}

	// Miss: pick a victim.
	c.res.Misses++
	if isFlash {
		c.res.FlashMisses++
	} else {
		c.res.RAMMisses++
	}
	victim := c.victim(base, si)
	set[victim] = key
	// The new line is most recent / newest.
	if c.cfg.Policy == PLRU {
		c.plru[si] = PLRUTouch(c.plru[si], c.ways, victim)
	} else {
		c.promote(base, victim)
	}
	return false
}

// AccessKind performs one reference carrying its access kind (KindFetch,
// KindRead, or KindWrite) and reports whether it hit: AccessKindEv
// without the event. Replacement behaves exactly as Access — every write
// policy is write-allocate — so the hit/miss counters are independent of
// the trace kinds; only the Writes/Writebacks accounting differs.
func (c *Cache) AccessKind(addr uint32, kind uint8) bool {
	return c.AccessKindEv(addr, kind).Hit
}

// AccessAllKinded performs each (reference, kind) pair in order — the
// sweep engines' chunk entry point. kinds must be nil (an address-only
// chunk) or at least as long as refs.
func (c *Cache) AccessAllKinded(refs []uint32, kinds []uint8) {
	if kinds == nil {
		c.AccessAll(refs)
		return
	}
	for i, addr := range refs {
		c.AccessKind(addr, kinds[i])
	}
}

// AccessAll performs each reference in order — the address-only chunk
// loop, hoisting the per-call overhead out of the trace loop.
func (c *Cache) AccessAll(refs []uint32) {
	for _, addr := range refs {
		c.Access(addr)
	}
}

// promote marks way w most-recent within the set (rank 0), aging others.
func (c *Cache) promote(base, w int) {
	old := c.order[base+w]
	if old == 0 {
		return // already most recent; nothing to age
	}
	set := c.order[base : base+c.ways]
	for i := range set {
		if set[i] < old {
			set[i]++
		}
	}
	set[w] = 0
}

// victim selects the way to replace in the set.
func (c *Cache) victim(base, si int) int {
	// An invalid way always wins.
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w] == 0 {
			return w
		}
	}
	switch c.cfg.Policy {
	case Random:
		c.randState = c.randState*1103515245 + 12345
		// Ways is a power of two (Validate), so masking the 16-bit draw
		// equals the modulo the paper sweep was recorded with.
		return int(c.randState >> 16 & c.waysMask)
	case PLRU:
		return PLRUVictim(c.plru[si], c.ways)
	default: // LRU and FIFO both evict the highest rank; they differ in
		// whether hits refresh the rank (see Access).
		ord := c.order[base : base+c.ways]
		worst := 0
		for w := 1; w < len(ord); w++ {
			if ord[w] > ord[worst] {
				worst = w
			}
		}
		return worst
	}
}

// PLRUTouch returns the tree bits after an access to way w in a
// ways-associative set. The tree is heap-indexed: node 0 is the root and
// node i's children are 2i+1 (left) and 2i+2 (right); a set bit means
// the next victim lies in the right half of that node's way range.
// Touching a way flips every bit on its root-to-leaf path to point away
// from it, and is therefore idempotent on repeat accesses. Exported so
// the direct simulator and the single-pass family engine share one
// definition and stay bit-exact.
func PLRUTouch(tree uint8, ways, w int) uint8 {
	node, lo, hi := 0, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			tree |= 1 << uint(node) // accessed left half; point victim right
			node, hi = 2*node+1, mid
		} else {
			tree &^= 1 << uint(node)
			node, lo = 2*node+2, mid
		}
	}
	return tree
}

// PLRUVictim returns the way the tree bits currently select for
// eviction in a ways-associative set.
func PLRUVictim(tree uint8, ways int) int {
	node, lo, hi := 0, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if tree&(1<<uint(node)) != 0 {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

// Simulate runs a whole address trace through a fresh cache.
func Simulate(cfg Config, trace []uint32) (Result, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	for _, addr := range trace {
		c.Access(addr)
	}
	return c.Result(), nil
}

// Sweep simulates the trace over every configuration. All caches advance
// in lockstep over a single pass of the trace, so the trace is read once.
func Sweep(cfgs []Config, trace []uint32) ([]Result, error) {
	caches := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	for _, addr := range trace {
		for _, c := range caches {
			c.Access(addr)
		}
	}
	out := make([]Result, len(caches))
	for i, c := range caches {
		out[i] = c.Result()
	}
	return out, nil
}
