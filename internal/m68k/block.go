// Superblock-caching execution engine, the CPU's fast path. The legacy
// interpreter (decode.go, ops_*.go) pays per instruction for the Step
// preamble (halt/IRQ/stop/trace tests), the nested decode switch, an
// indirect bus call per instruction-stream word and the generic EA
// machinery's fetches. The engine removes those costs for straight-line
// code: it discovers a run of "block-safe" instructions ending at a
// control transfer, using the annotations in table.go, specializes each
// one once (spec.go) into a step function with its operands pre-resolved,
// and replays the block from a cache keyed by (PC, memory generation).
//
// Correctness strategy: every instruction either runs a specialized step
// function held bit-identical to the legacy interpreter by the
// differential oracle (diff_test.go), or — through the generic adapter —
// the legacy dispatch itself, with the CPU in the same state CPU.Step
// would present (PC past the opcode word). Instruction-stream fetches are
// served from a direct "code window" over the region's byte slice, with
// cycle/stat/trace accounting replayed per reference at the original
// program point (CPU.fetchRef), so the emitted bus-reference stream —
// order, addresses, sizes, kinds, regions — is bit-identical to the
// interpreter's. Anything the whitelist cannot prove straight-line and
// exception-free (bflags == 0 in table.go) ends the block and executes
// through CPU.Step against live memory.
//
// Invalidation: blocks over watched (RAM) regions register page marks; any
// watched write overlapping a marked page sweeps overlapping blocks from
// the cache and, if the write landed inside the currently executing block,
// stops it after the current instruction (whitelisted handlers fetch all
// extension words before their store, so the in-flight instruction already
// matches what the interpreter would have executed). Read-only regions
// (flash) skip per-write watching entirely; wholesale flash updates
// (LoadROM, debugger pokes) bump a generation counter that lazily
// invalidates every cached block at lookup.
//
// Block chaining patches a direct successor pointer into a block after its
// first fall-through, so hot loops run block-to-block without the cache
// lookup; links are validated against a chain epoch that every
// invalidation path bumps (see execSpec), so a severed or stale link
// simply degrades to a lookup, never to stale code.
package m68k

import (
	"fmt"
	"slices"
)

const (
	blockTableBits = 13
	blockTableSize = 1 << blockTableBits

	// maxBlockOps bounds translation effort and the tick-sync drift a
	// single block can accumulate past the machine's cycle limit
	// (execSpec re-checks the limit after every instruction anyway; the
	// cap just keeps pathological straight-line runs from translating
	// forever).
	maxBlockOps = 48

	// watchPageShift: watched-region write marks have 512-byte
	// granularity — coarse enough that the mark array stays small and
	// cheap to test, fine enough that stack traffic rarely aliases code
	// pages.
	watchPageShift = 9
)

// DispatchKind selects the execution engine.
type DispatchKind uint8

// Dispatch engines. The zero value is the specialized superblock engine,
// the fast path; DispatchLegacy runs CPU.Step alone, the nested-switch
// interpreter that is the executable specification, with no block engine.
const (
	DispatchSpec DispatchKind = iota
	DispatchLegacy
)

// ParseDispatch maps the CLI spelling to a DispatchKind: "", "auto" and
// "spec" select the fast path, "legacy" the reference.
func ParseDispatch(s string) (DispatchKind, error) {
	switch s {
	case "", "auto", "spec":
		return DispatchSpec, nil
	case "legacy":
		return DispatchLegacy, nil
	}
	return DispatchSpec, fmt.Errorf("m68k: unknown dispatch engine %q (want auto, spec or legacy)", s)
}

// BlockRegion describes one directly addressable memory region to the
// engine: where it sits, its backing bytes, and the accounting the bus
// would perform per reference so the engine can replay it exactly.
type BlockRegion struct {
	Base uint32
	Mem  []byte

	// Cost is the wait-state charge per reference (bus.RAMCycles /
	// bus.FlashCycles equivalents).
	Cost uint64

	// Refs is the region reference counter (e.g. Stats.RAMRefs). May be
	// nil in tests; the engine substitutes a private sink.
	Refs *uint64

	// Watched marks a region whose writes must invalidate cached blocks
	// (RAM). At most one region may be watched.
	Watched bool

	// RO marks a region whose data writes are discarded (flash ROM);
	// ROWrites, when non-nil, counts the discards (Stats.FlashWrites).
	RO       bool
	ROWrites *uint64

	// Dirty, when non-nil, is the region's dirty-page map (one byte per
	// 1<<DirtyPageShift bytes): the engine's inline write path marks it so
	// a pooled memory image (bus.Image) knows which pages to zero on
	// reclaim. The bus-side write paths mark their own copy of the map.
	Dirty []byte
}

// DirtyPageShift is the dirty-tracking page granularity (64 KB): coarse
// enough that a map covers 16 MB RAM in 256 bytes, fine enough that a
// short session dirties only a fraction of the image.
const DirtyPageShift = 16

// BlockBinding wires a BlockEngine to a concrete memory system: the
// translatable regions plus the bus-level counters the engine's fast paths
// must keep coherent with the ordinary bus path.
type BlockBinding struct {
	Regions []BlockRegion

	// Kind counters (Stats.Fetches/Reads/Writes) and the misaligned-access
	// counter (Stats.OddAccesses). Any may be nil in tests.
	Fetches *uint64
	Reads   *uint64
	Writes  *uint64
	Odd     *uint64

	// WakeAt, when non-nil, points at the hardware wake-compare register.
	// The machine's step loop must observe time after every instruction
	// while the wake timer is armed, so block execution breaks as soon as
	// *WakeAt becomes nonzero.
	WakeAt *uint32
}

// block is a translated superblock: the instructions at [pc, end) under
// memory generation gen, specialized into sops. A "negative" block
// (sops == nil) records that pc is not translatable (odd, unmapped, or
// starting with a non-whitelisted opcode) so repeated lookups fall back to
// Step without re-deciding.
type block struct {
	pc      uint32
	end     uint32
	gen     uint64
	region  int8
	watched bool
	sops    []specOp

	// succ/succEp: chained successor, patched by execSpec after the first
	// fall-through from this block. The link is trusted only while succEp
	// matches the engine's chain epoch AND the successor's generation and
	// pc still match; otherwise execSpec re-looks-up and re-patches.
	// Two slots: succ is the most-recently-taken successor, succ2 the one
	// before it, so a two-way fork (a conditional branch alternating
	// targets) chains both ways instead of re-patching every transition.
	succ    *block
	succEp  uint64
	succ2   *block
	succ2Ep uint64
}

// BlockStats counts engine activity for the observability layer.
type BlockStats struct {
	Translated    uint64 // blocks translated (negative blocks excluded)
	TranslatedOps uint64 // instructions across translated blocks
	Hits          uint64 // cache hits
	Misses        uint64 // cache misses (includes generation mismatches)
	Invalidations uint64 // blocks dropped by watched writes
	Fallbacks     uint64 // quanta executed via CPU.Step (untranslatable PC)

	// Specialization and chaining activity.
	SpecOps      uint64 // specialized (non-adapter) ops across translated blocks
	SpecExec     uint64 // specialized op executions
	AdapterExec  uint64 // generic-adapter op executions
	ChainFollows uint64 // block transitions taken via a successor link
	ChainPatches uint64 // successor links patched (first or re-patched)
}

// AvgBlockLen returns the mean instructions per translated block.
func (s *BlockStats) AvgBlockLen() float64 {
	if s.Translated == 0 {
		return 0
	}
	return float64(s.TranslatedOps) / float64(s.Translated)
}

// BlockEngine runs a CPU through cached superblocks. Create one with
// NewBlockEngine; it is not safe for concurrent use (like the CPU itself).
type BlockEngine struct {
	c    *CPU
	bind BlockBinding

	// Stats is read by the observability layer between runs.
	Stats BlockStats

	gen   uint64
	table []*block

	// chain: follow/patch direct successor links. chainEp is the chain
	// epoch: bumping it (on any invalidation or generation bump) atomically
	// distrusts every successor link ever patched, without walking blocks.
	chain   bool
	chainEp uint64

	// refs[i] is Regions[i].Refs normalized non-nil.
	refs []*uint64

	// Watched-region page marks: watch[p] counts cached blocks overlapping
	// page p of the watched region, so data writes test one or two counters
	// before paying for an invalidation sweep.
	watch []uint32
	wbase uint32
	wlen  uint32

	// cur/stop: the block being executed and the flag a mid-block
	// invalidation sets to end it after the current instruction.
	cur  *block
	stop bool

	wake *uint32
	fm   fastMem

	// scratch is translate's working array, maxBlockOps long.
	scratch []specOp

	// Sinks for nil binding pointers. Per-engine (not package-level) so
	// parallel tests under -race never share a plain uint64.
	dummy    uint64
	zeroWake uint32
}

// NewBlockEngine builds an engine for c bound to the given memory system.
func NewBlockEngine(c *CPU, bind BlockBinding) *BlockEngine {
	opTableOnce.Do(buildOpTable)
	e := &BlockEngine{
		c:       c,
		bind:    bind,
		table:   make([]*block, blockTableSize),
		chain:   true,
		scratch: make([]specOp, 0, maxBlockOps),
	}
	norm := func(p *uint64) *uint64 {
		if p == nil {
			return &e.dummy
		}
		return p
	}
	e.refs = make([]*uint64, len(bind.Regions))
	for i := range bind.Regions {
		r := &bind.Regions[i]
		e.refs[i] = norm(r.Refs)
		if r.Watched {
			if e.watch != nil {
				panic("m68k: BlockBinding has more than one watched region")
			}
			e.wbase = r.Base
			e.wlen = uint32(len(r.Mem))
			pages := (len(r.Mem) + (1 << watchPageShift) - 1) >> watchPageShift
			e.watch = make([]uint32, pages)
		}
	}
	e.wake = bind.WakeAt
	if e.wake == nil {
		e.wake = &e.zeroWake
	}
	c.fetchKind = norm(bind.Fetches)
	c.fetchRefs = &e.dummy // rebound per block in execSpec

	e.fm = fastMem{
		eng:     e,
		odd:     norm(bind.Odd),
		fetches: norm(bind.Fetches),
		reads:   norm(bind.Reads),
		writes:  norm(bind.Writes),
		watch:   e.watch,
	}
	for i := range bind.Regions {
		r := &bind.Regions[i]
		e.fm.regions = append(e.fm.regions, fastRegion{
			base:    r.Base,
			mem:     r.Mem,
			cost:    r.Cost,
			refs:    e.refs[i],
			watched: r.Watched,
			ro:      r.RO,
			roWr:    norm(r.ROWrites),
			dirty:   r.Dirty,
		})
	}
	c.fast = &e.fm
	return e
}

// SetTrace installs the reference hook (nil detaches): it receives every
// RAM and flash reference the engine serves itself — code-window fetches
// and fastMem's data accesses — exactly where the bus would report them.
// The machine passes the bus's Tracer, so one function sees the whole
// stream.
func (e *BlockEngine) SetTrace(f func(addr uint32, size Size, kind Access)) {
	e.c.fTrace = f
}

// setChaining enables or disables successor-link following. On by
// default; the no-chain tests turn it off to isolate the specialized
// handlers from the chain transition.
func (e *BlockEngine) setChaining(on bool) { e.chain = on }

// BumpGeneration invalidates every cached block lazily: lookups compare
// generations, so stale blocks simply miss and retranslate. Called after
// wholesale memory replacement (ROM load, flash pokes). Chained successor
// links die with the epoch.
func (e *BlockEngine) BumpGeneration() {
	e.gen++
	e.chainEp++
}

// NoteWrite records a data write to the watched region. Callers must
// invoke it for every mutation of watched memory that bypasses the
// engine's own fast path (bus writes, Poke). The page-mark test keeps the
// common case — data writes nowhere near cached code — to a couple of
// loads.
func (e *BlockEngine) NoteWrite(addr uint32, size Size) {
	off := addr - e.wbase
	if off >= e.wlen {
		return
	}
	p0 := off >> watchPageShift
	p1 := (off + uint32(size) - 1) >> watchPageShift
	if p1 >= uint32(len(e.watch)) {
		p1 = uint32(len(e.watch)) - 1
	}
	marked := false
	for p := p0; p <= p1; p++ {
		if e.watch[p] != 0 {
			marked = true
			break
		}
	}
	if !marked {
		return
	}
	e.invalidate(addr, addr+uint32(size))
}

// invalidate sweeps cached blocks overlapping [lo, hi) and stops the
// current block if the write landed inside it.
func (e *BlockEngine) invalidate(lo, hi uint32) {
	for i, b := range e.table {
		if b != nil && b.watched && b.pc < hi && b.end > lo {
			e.dropWatch(b)
			e.table[i] = nil
			e.Stats.Invalidations++
		}
	}
	if b := e.cur; b != nil && b.pc < hi && b.end > lo {
		e.stop = true
	}
}

func (e *BlockEngine) addWatch(b *block) {
	for p := (b.pc - e.wbase) >> watchPageShift; p <= (b.end-1-e.wbase)>>watchPageShift; p++ {
		e.watch[p]++
	}
}

func (e *BlockEngine) dropWatch(b *block) {
	for p := (b.pc - e.wbase) >> watchPageShift; p <= (b.end-1-e.wbase)>>watchPageShift; p++ {
		e.watch[p]--
	}
	// A watched block leaving the cache (invalidation sweep or collision
	// eviction) loses its page marks, so writes into its range would no
	// longer be noticed — any successor link still pointing at it must die.
	// Bumping the epoch severs every link; live ones re-patch on the next
	// fall-through. (Unwatched flash blocks are immutable and generation-
	// checked, so their eviction needs no epoch bump.)
	e.chainEp++
}

// regionOf returns the index of the region containing pc, or -1.
func (e *BlockEngine) regionOf(pc uint32) int {
	for i := range e.bind.Regions {
		r := &e.bind.Regions[i]
		if pc-r.Base < uint32(len(r.Mem)) {
			return i
		}
	}
	return -1
}

// translate decodes the superblock starting at pc, or a negative block when
// pc cannot head one.
func (e *BlockEngine) translate(pc uint32) *block {
	b := &block{pc: pc, end: pc, gen: e.gen, region: -1}
	if pc&1 != 0 {
		return b
	}
	ri := e.regionOf(pc)
	if ri < 0 {
		return b
	}
	r := &e.bind.Regions[ri]
	mem := r.Mem
	off := uint64(pc - r.Base)
	// The ops are specialized into the engine's scratch array and copied
	// out once the block's length is known, so each block costs one
	// allocation. specialize overwrites each op whole, so the scratch
	// needs no clearing.
	sops := e.scratch[:0]
	for len(sops) < maxBlockOps {
		if off+2 > uint64(len(mem)) {
			break
		}
		op := uint16(mem[off])<<8 | uint16(mem[off+1])
		ent := &opTable[op]
		if ent.bflags == 0 {
			break
		}
		ilen := uint64(2 + 2*uint32(ent.extw))
		if off+ilen > uint64(len(mem)) {
			break
		}
		sops = sops[:len(sops)+1]
		s := &sops[len(sops)-1]
		specialize(s, ent, op, r.Base+uint32(off), mem, r.Base)
		if s.gad == 0 {
			e.Stats.SpecOps++
		}
		off += ilen
		if ent.bflags&bEnd != 0 {
			break
		}
	}
	if len(sops) == 0 {
		return b
	}
	b.sops = slices.Clone(sops)
	b.end = r.Base + uint32(off)
	b.region = int8(ri)
	b.watched = r.Watched
	e.Stats.Translated++
	e.Stats.TranslatedOps += uint64(len(b.sops))
	if b.watched {
		e.addWatch(b)
	}
	return b
}

// lookup returns the cached block for pc under the current generation,
// translating (and caching — negative results included) on miss.
func (e *BlockEngine) lookup(pc uint32) *block {
	i := pc >> 1 & (blockTableSize - 1)
	if b := e.table[i]; b != nil {
		if b.pc == pc && b.gen == e.gen {
			e.Stats.Hits++
			return b
		}
		if b.watched {
			e.dropWatch(b)
		}
	}
	e.Stats.Misses++
	nb := e.translate(pc)
	e.table[i] = nb
	return nb
}

// execSpec runs a translated block until it ends or a break condition
// fires: the cycle limit is reached, a mid-block invalidation stops it, or
// the wake timer is armed. Each instruction replays exactly what the
// interpreter would do: the opcode fetch accounted at its program point,
// then the specialized step function (or, through the generic adapter,
// the legacy dispatch) with PC set past the opcode word. When the block
// runs to its natural end with cycles to spare, execution continues
// directly into the successor block instead of returning to RunUntil.
//
// No pending-IRQ check runs inside a block: deliverability cannot change
// there. Hardware asserts interrupts only between machine quanta
// (Dragonball.Sync/PushEvent), the only IRQ-related register a handler can
// reach mid-block (RegIntAck) deasserts, and no whitelisted handler writes
// the SR interrupt mask, halts or stops. RunUntil re-checks before the
// next quantum.
//
// The chain transition is safe under exactly the conditions the outer loop
// would re-establish anyway: the successor link is only followed when the
// chain epoch is current (no invalidation or eviction of any watched block
// since patching), the successor's pc equals the live PC, and its
// generation is current. The IRQ argument above holds across the seam
// too, so nothing the interpreter would observe between two blocks is
// skipped. Links are never patched toward a negative (untranslatable)
// block: the loop breaks to RunUntil, which falls back to Step.
func (e *BlockEngine) execSpec(b *block, limit uint64) {
	c := e.c
	// Loop invariants hoisted: the hooks cannot change while blocks run
	// (SetTracer and rebinding happen only between machine quanta).
	fTrace, opCount, onExec, wake := c.fTrace, c.OpcodeCount, c.OnExec, e.wake
	for {
		r := &e.bind.Regions[b.region]
		c.code = r.Mem
		c.codeBase = r.Base
		c.fetchCost = r.Cost
		c.fetchRefs = e.refs[b.region]
		e.cur = b
		e.stop = false
		cost, refs, kind := c.fetchCost, c.fetchRefs, c.fetchKind
		// n/gn batch the opcode-fetch counters, the retired-instruction
		// count and the spec/adapter split, flushed after the loop. The
		// final sums are exact: handlers' own extension-word fetches RMW the
		// same counters directly and addition commutes, and nothing inside a
		// block reads them (the machine publishes its metrics between
		// quanta). Cycles cannot batch — the limit check needs them exact
		// per instruction.
		var n, gn uint64
		broke := false
		// Same order as execOne: the opcode fetch (and its accounting,
		// fetchRef inlined by hand) precedes the observation hooks, which
		// precede the handler.
		for i := range b.sops {
			s := &b.sops[i]
			c.PC = s.npc
			c.Cycles += cost
			n++
			if fTrace != nil {
				fTrace(s.pc, Word, Fetch)
			}
			if opCount != nil {
				opCount[s.op]++
			}
			if onExec != nil {
				onExec(s.pc, s.op)
			}
			if s.gad != 0 {
				gn++
			}
			s.fn(c, s)
			if c.Cycles >= limit || e.stop || *wake != 0 {
				broke = true
				break
			}
		}
		c.Instructions += n
		*refs += n
		*kind += n
		e.Stats.SpecExec += n - gn
		e.Stats.AdapterExec += gn
		e.cur = nil
		if broke || !e.chain {
			break
		}
		nb := b.succ
		if nb != nil && b.succEp == e.chainEp && nb.pc == c.PC && nb.gen == e.gen && nb.sops != nil {
			e.Stats.ChainFollows++
		} else if nb = b.succ2; nb != nil && b.succ2Ep == e.chainEp && nb.pc == c.PC && nb.gen == e.gen && nb.sops != nil {
			// Promote the second slot to most-recently-taken; the demoted
			// link keeps its own epoch and is re-validated before any use.
			b.succ, b.succEp, b.succ2, b.succ2Ep = nb, e.chainEp, b.succ, b.succEp
			e.Stats.ChainFollows++
		} else {
			nb = e.lookup(c.PC)
			if nb.sops == nil {
				break
			}
			b.succ, b.succEp, b.succ2, b.succ2Ep = nb, e.chainEp, b.succ, b.succEp
			e.Stats.ChainPatches++
		}
		b = nb
	}
	c.code = nil
}

// RunUntil executes instructions until the CPU's cycle counter reaches
// limit, or a condition the machine loop must observe first arises: a
// pending unmasked interrupt was delivered, the CPU stopped or halted, or
// the wake timer is armed (the tick loop must sync after every instruction
// while it is). A limit at or below the current cycle count executes
// exactly one Step-equivalent quantum, which is what keeps the machine's
// tick-sync points identical to the interpreter loop's.
func (e *BlockEngine) RunUntil(limit uint64) {
	c := e.c
	for {
		if c.halted {
			return
		}
		if p := c.pendingIRQ; p != 0 && (p == 7 || p > c.IntMask()) {
			c.Step()
			return
		}
		if c.stopped {
			c.Step()
			return
		}
		if c.sr&FlagT != 0 {
			c.Step()
		} else if b := e.lookup(c.PC); b.sops != nil {
			e.execSpec(b, limit)
		} else {
			e.Stats.Fallbacks++
			c.Step()
		}
		if c.Cycles >= limit || c.halted || c.stopped || *e.wake != 0 {
			return
		}
	}
}

// fastRegion / fastMem implement the inline data path: the semantics of
// bus.Bus.Read/Write for directly addressable regions without the
// interface call, traced or not. Accounting and edge cases mirror the bus
// exactly: the odd-access, kind and region counters and the wait states,
// then the reference hook (CPU.fTrace), then the access effect; accesses
// crossing the end of a region's array are discarded whole, exactly like
// the bus readBE/writeBE clamp.
type fastRegion struct {
	base    uint32
	mem     []byte
	cost    uint64
	refs    *uint64
	watched bool
	ro      bool
	roWr    *uint64
	dirty   []byte
}

type fastMem struct {
	regions []fastRegion
	odd     *uint64
	fetches *uint64
	reads   *uint64
	writes  *uint64
	eng     *BlockEngine

	// watch aliases the engine's page-mark array (never reallocated), so
	// the write path can test for marks inline and skip the NoteWrite call
	// entirely for the overwhelmingly common case of data writes far from
	// cached code.
	watch []uint32
}

func (f *fastMem) read(c *CPU, addr uint32, size Size, kind Access) (uint32, bool) {
	for i := range f.regions {
		r := &f.regions[i]
		off := addr - r.base
		if off >= uint32(len(r.mem)) {
			continue
		}
		if size != Byte && addr&1 != 0 {
			*f.odd++
		}
		switch kind {
		case Fetch:
			*f.fetches++
		case Read:
			*f.reads++
		default:
			*f.writes++
		}
		*r.refs++
		c.Cycles += r.cost
		if c.fTrace != nil {
			c.fTrace(addr, size, kind)
		}
		return beRead(r.mem, off, size), true
	}
	return 0, false
}

func (f *fastMem) write(c *CPU, addr uint32, size Size, v uint32) bool {
	for i := range f.regions {
		r := &f.regions[i]
		off := addr - r.base
		if off >= uint32(len(r.mem)) {
			continue
		}
		if size != Byte && addr&1 != 0 {
			*f.odd++
		}
		*f.writes++
		*r.refs++
		c.Cycles += r.cost
		if c.fTrace != nil {
			c.fTrace(addr, size, Write)
		}
		if r.ro {
			*r.roWr++
			return true
		}
		if r.watched {
			// Inline page-mark guard; NoteWrite repeats it, so only pay
			// the call when a mark might overlap. The second page is only
			// computed (and loaded) when the access actually straddles a
			// page boundary, which a <= 4-byte access almost never does.
			w := f.watch
			p0 := off >> watchPageShift
			if w[p0] != 0 {
				f.eng.NoteWrite(addr, size)
			} else if p1 := (off + uint32(size) - 1) >> watchPageShift; p1 != p0 {
				if p1 >= uint32(len(w)) {
					p1 = uint32(len(w)) - 1
				}
				if w[p1] != 0 {
					f.eng.NoteWrite(addr, size)
				}
			}
		}
		if d := r.dirty; d != nil {
			p := off >> DirtyPageShift
			if p < uint32(len(d)) {
				d[p] = 1
				if p1 := (off + uint32(size) - 1) >> DirtyPageShift; p1 != p && p1 < uint32(len(d)) {
					d[p1] = 1
				}
			}
		}
		beWrite(r.mem, off, size, v)
		return true
	}
	return false
}

func beRead(mem []byte, off uint32, size Size) uint32 {
	if uint64(off)+uint64(size) > uint64(len(mem)) {
		return 0
	}
	switch size {
	case Byte:
		return uint32(mem[off])
	case Word:
		return uint32(mem[off])<<8 | uint32(mem[off+1])
	default:
		return uint32(mem[off])<<24 | uint32(mem[off+1])<<16 |
			uint32(mem[off+2])<<8 | uint32(mem[off+3])
	}
}

func beWrite(mem []byte, off uint32, size Size, v uint32) {
	if uint64(off)+uint64(size) > uint64(len(mem)) {
		return
	}
	switch size {
	case Byte:
		mem[off] = byte(v)
	case Word:
		mem[off] = byte(v >> 8)
		mem[off+1] = byte(v)
	default:
		mem[off] = byte(v >> 24)
		mem[off+1] = byte(v >> 16)
		mem[off+2] = byte(v >> 8)
		mem[off+3] = byte(v)
	}
}
