// Observability wiring for the machine: RegisterObs publishes the
// subsystem statistics the emulator already keeps (emu.Stats, bus.Stats,
// palmos.Stats, the block engine's BlockStats, the opcode histogram) as
// polled func metrics, and attaches the few real counters and the
// hack-latency hook that have no pre-existing aggregate.
//
// The run loops own the live statistics and write them without
// synchronization, so the func metrics never read them. The machine copies
// them into a published snapshot under a lock at every tick sync and
// whenever a run loop returns; the funcs read that copy, so a scrape from
// another goroutine (the progress reporter, the metrics endpoint) is
// race-free, at most one tick behind while the machine runs and exact
// once it stops.
package emu

import (
	"fmt"
	"sync"

	"palmsim/internal/bus"
	"palmsim/internal/hw"
	"palmsim/internal/m68k"
	"palmsim/internal/obs"
	"palmsim/internal/palmos"
)

// HackBudgetMs is the paper's §2.1 per-call instrumentation budget: a hack
// may add at most this much device time per logged trap.
const HackBudgetMs = 10

// published is the copy of the machine's statistics that the func metrics
// read.
type published struct {
	mu      sync.Mutex
	machine Stats
	bus     bus.Stats
	kernel  palmos.Stats
	block   m68k.BlockStats
	illegal uint64
	ticks   uint32
	elapsed float64
	// groups are the m68k.group.* sums. Each sum scans the 65,536-entry
	// opcode histogram, so they are refreshed only when a run loop
	// returns, never at tick sync.
	groups [m68k.NumOpcodeGroups]uint64
}

// publish copies the live statistics into m.pub, with the opcode-group
// sums when groups is set. Only the goroutine running the machine calls
// it, and only when RegisterObs bound a registry.
func (m *Machine) publish(groups bool) {
	p := m.pub
	p.mu.Lock()
	defer p.mu.Unlock()
	p.machine = m.Stats
	p.bus = m.Bus.Stats
	p.kernel = m.Kernel.Stats
	if m.engine != nil {
		p.block = m.engine.Stats
	}
	p.illegal = m.CPU.IllegalOps
	p.ticks = m.Ticks()
	p.elapsed = m.ElapsedSeconds()
	if groups && m.CPU.OpcodeCount != nil {
		for g := range p.groups {
			p.groups[g] = m68k.GroupCount(m.CPU.OpcodeCount, g)
		}
	}
}

// runReturned publishes the statistics, opcode groups included, when a
// run loop returns, so a stopped machine's metrics are exact. The run
// loops defer it.
func (m *Machine) runReturned() {
	if m.pub != nil {
		m.publish(true)
	}
}

// read returns a func metric that reads the published copy under its lock.
func (p *published) read(v func(*published) float64) func() float64 {
	return func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return v(p)
	}
}

// RegisterObs binds the machine's metrics into the registry. A nil
// registry is the disabled state and leaves the machine untouched. Func
// metrics rebind on re-registration, so registering a second machine (e.g.
// the replay machine after the collection machine) supersedes the first
// while plain counters keep accumulating.
func (m *Machine) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	m.obsTickSyncs = r.Counter("emu.tick_syncs")
	m.obsLateInputs = r.Counter("emu.late_inputs")
	p := &published{}
	m.pub = p
	m.publish(true)

	r.Func("emu.instructions", p.read(func(s *published) float64 { return float64(s.machine.Instructions) }))
	r.Func("emu.active_cycles", p.read(func(s *published) float64 { return float64(s.machine.ActiveCycles) }))
	r.Func("emu.skipped_cycles", p.read(func(s *published) float64 { return float64(s.machine.SkippedCycles) }))
	r.Func("emu.inputs_injected", p.read(func(s *published) float64 { return float64(s.machine.Injected) }))
	r.Func("emu.ticks", p.read(func(s *published) float64 { return float64(s.ticks) }))
	r.Func("emu.elapsed_device_seconds", p.read(func(s *published) float64 { return s.elapsed }))

	r.Func("m68k.illegal_ops", p.read(func(s *published) float64 { return float64(s.illegal) }))
	if m.engine != nil {
		r.Func("m68k.block.translated", p.read(func(s *published) float64 { return float64(s.block.Translated) }))
		r.Func("m68k.block.hits", p.read(func(s *published) float64 { return float64(s.block.Hits) }))
		r.Func("m68k.block.misses", p.read(func(s *published) float64 { return float64(s.block.Misses) }))
		r.Func("m68k.block.invalidations", p.read(func(s *published) float64 { return float64(s.block.Invalidations) }))
		r.Func("m68k.block.fallbacks", p.read(func(s *published) float64 { return float64(s.block.Fallbacks) }))
		r.Func("m68k.block.avg_len", p.read(func(s *published) float64 { return s.block.AvgBlockLen() }))
		// Specialization and chaining health (PR 8). spec.share is the
		// fraction of executed ops that ran through a specialized closure
		// rather than the generic adapter — the number the per-block
		// specializer exists to maximize; chain.follow_rate is block-to-block
		// transitions that skipped the table lookup.
		r.Func("m68k.spec.ops", p.read(func(s *published) float64 { return float64(s.block.SpecOps) }))
		r.Func("m68k.spec.exec", p.read(func(s *published) float64 { return float64(s.block.SpecExec) }))
		r.Func("m68k.spec.adapter_exec", p.read(func(s *published) float64 { return float64(s.block.AdapterExec) }))
		r.Func("m68k.spec.share", p.read(func(s *published) float64 {
			total := s.block.SpecExec + s.block.AdapterExec
			if total == 0 {
				return 0
			}
			return float64(s.block.SpecExec) / float64(total)
		}))
		r.Func("m68k.chain.patches", p.read(func(s *published) float64 { return float64(s.block.ChainPatches) }))
		r.Func("m68k.chain.follows", p.read(func(s *published) float64 { return float64(s.block.ChainFollows) }))
		r.Func("m68k.chain.follow_rate", p.read(func(s *published) float64 {
			entries := s.block.Hits + s.block.Misses + s.block.ChainFollows
			if entries == 0 {
				return 0
			}
			return float64(s.block.ChainFollows) / float64(entries)
		}))
	}
	// Process-wide pool effectiveness: machines built on a recycled image.
	r.Func("emu.image.reuses", func() float64 { return float64(ImageReuses()) })
	if m.CPU.OpcodeCount != nil {
		for g := 0; g < m68k.NumOpcodeGroups; g++ {
			g := g
			r.Func(fmt.Sprintf("m68k.group.%s", m68k.GroupName(g)),
				p.read(func(s *published) float64 { return float64(s.groups[g]) }))
		}
	}

	r.Func("bus.fetches", p.read(func(s *published) float64 { return float64(s.bus.Fetches) }))
	r.Func("bus.reads", p.read(func(s *published) float64 { return float64(s.bus.Reads) }))
	r.Func("bus.writes", p.read(func(s *published) float64 { return float64(s.bus.Writes) }))
	r.Func("bus.ram_refs", p.read(func(s *published) float64 { return float64(s.bus.RAMRefs) }))
	r.Func("bus.flash_refs", p.read(func(s *published) float64 { return float64(s.bus.FlashRefs) }))
	r.Func("bus.io_refs", p.read(func(s *published) float64 { return float64(s.bus.IORefs) }))
	r.Func("bus.open_refs", p.read(func(s *published) float64 { return float64(s.bus.OpenRefs) }))
	r.Func("bus.flash_writes", p.read(func(s *published) float64 { return float64(s.bus.FlashWrites) }))
	r.Func("bus.odd_accesses", p.read(func(s *published) float64 { return float64(s.bus.OddAccesses) }))

	r.Func("kernel.trap_dispatches", p.read(func(s *published) float64 { return float64(s.kernel.TrapDispatches) }))
	r.Func("kernel.events_queued", p.read(func(s *published) float64 { return float64(s.kernel.EventsQueued) }))
	r.Func("kernel.events_dropped", p.read(func(s *published) float64 { return float64(s.kernel.EventsDropped) }))
	r.Func("kernel.events_popped", p.read(func(s *published) float64 { return float64(s.kernel.EventsPopped) }))
	r.Func("kernel.nil_events", p.read(func(s *published) float64 { return float64(s.kernel.NilEvents) }))
	r.Func("kernel.serial_bytes", p.read(func(s *published) float64 { return float64(s.kernel.SerialBytes) }))
	r.Func("kernel.hack_records", p.read(func(s *published) float64 { return float64(s.kernel.HackRecords) }))
	r.Func("kernel.dozes", p.read(func(s *published) float64 { return float64(s.kernel.Dozes) }))

	m.registerHackObs(r)
}

// registerHackObs installs the kernel hook that tracks per-trap hack call
// counts and logging latency against the paper's 10 ms budget. Latency is
// simulated device time: the cycles the Figure 3 storage cost model
// charged for the log append, converted at the 33 MHz clock.
func (m *Machine) registerHackObs(r *obs.Registry) {
	// Bucket bounds in microseconds; 10_000 µs is the budget boundary.
	hist := r.Histogram("hack.latency_us", []uint64{100, 500, 1000, 2500, 5000, 10000, 25000})
	worst := r.Max("hack.max_latency_us")
	over := r.Counter("hack.budget_exceeded")
	// The kernel dispatches single-threaded, so the lazy per-trap counter
	// cache needs no lock.
	var perTrap [palmos.NumTraps]*obs.Counter
	m.Kernel.ObsHack = func(trap uint16, cycles uint64) {
		us := cycles * 1e6 / hw.CPUHz
		hist.Observe(us)
		worst.Observe(us)
		if us > HackBudgetMs*1000 {
			over.Inc()
		}
		if int(trap) < len(perTrap) {
			c := perTrap[trap]
			if c == nil {
				c = r.Counter("hack.calls." + palmos.TrapName(int(trap)))
				perTrap[trap] = c
			}
			c.Inc()
		}
	}
}
