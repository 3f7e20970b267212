// Package cpu models the SoC's general-purpose cores: 64-bit in-order,
// single-issue machines in the spirit of the Ariane RV64GC cores of the
// paper's prototype. A core executes benchmark programs written as Go
// closures against a Ctx, which charges simulated time for every
// instruction: ALU work retires one instruction per cycle, loads and stores
// go through the core's MMU and coherent cache, fences drain (free in this
// blocking pipeline but still retired), and MMIO operations stall the core
// for their full non-speculative round trip.
//
// The counters the paper's Figures 10/11 need — instructions retired and
// cycles elapsed — accumulate on the Ctx; IPC is their ratio.
package cpu

import (
	"fmt"

	"cohort/internal/coherence"
	"cohort/internal/mem"
	"cohort/internal/mmio"
	"cohort/internal/mmu"
	"cohort/internal/sim"
)

// Counters tracks retired instructions by class.
type Counters struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Fences       uint64
	MMIOReads    uint64
	MMIOWrites   uint64
	Compute      uint64
}

// FaultHandler resolves a page fault on behalf of the core (the OS trap
// path). It runs as part of the core's process and may consume simulated
// time. Returning an error kills the program (unhandled fault).
type FaultHandler func(p *sim.Proc, f *mmu.PageFault) error

// Core is one general-purpose core.
type Core struct {
	ID    int
	tile  int
	k     *sim.Kernel
	cache *coherence.Cache
	mmu   *mmu.MMU
	mmioR *mmio.Requester

	// Fault is invoked on page faults; nil means faults panic.
	Fault FaultHandler
	// User marks memory accesses as user-mode for permission checks.
	User bool
}

// Config wires a core's building blocks together.
type Config struct {
	ID       int
	Tile     int
	Kernel   *sim.Kernel
	Cache    *coherence.Cache
	MMU      *mmu.MMU
	MMIOPort *mmio.Requester
}

// New builds a core. MMU and MMIOPort may be nil if the workload doesn't
// need them.
func New(cfg Config) *Core {
	if cfg.Kernel == nil || cfg.Cache == nil {
		panic("cpu: core needs a kernel and a cache")
	}
	return &Core{
		ID:    cfg.ID,
		tile:  cfg.Tile,
		k:     cfg.Kernel,
		cache: cfg.Cache,
		mmu:   cfg.MMU,
		mmioR: cfg.MMIOPort,
		User:  true,
	}
}

// Tile returns the mesh tile the core occupies.
func (c *Core) Tile() int { return c.tile }

// MMU exposes the core's MMU (for the OS model).
func (c *Core) MMU() *mmu.MMU { return c.mmu }

// Run spawns prog on the core as a simulation process.
func (c *Core) Run(name string, prog func(ctx *Ctx)) {
	c.k.Spawn(name, func(p *sim.Proc) {
		prog(&Ctx{core: c, p: p})
	})
}

// Ctx is a program's handle to its core; all methods are blocking process
// calls charging simulated time.
type Ctx struct {
	core *Core
	p    *sim.Proc
	n    Counters
	t0   sim.Time
}

// Proc returns the underlying simulation process.
func (x *Ctx) Proc() *sim.Proc { return x.p }

// ResetCounters starts a measurement window.
func (x *Ctx) ResetCounters() {
	x.n = Counters{}
	x.t0 = x.p.Now()
}

// Counters returns the counts since the last ResetCounters.
func (x *Ctx) Counters() Counters { return x.n }

// Cycles returns cycles elapsed since the last ResetCounters.
func (x *Ctx) Cycles() sim.Time { return x.p.Now() - x.t0 }

// IPC returns instructions per cycle over the measurement window.
func (x *Ctx) IPC() float64 {
	cy := x.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(x.n.Instructions) / float64(cy)
}

// Compute retires n ALU instructions (1 cycle each).
func (x *Ctx) Compute(n int) {
	if n <= 0 {
		return
	}
	x.n.Instructions += uint64(n)
	x.n.Compute += uint64(n)
	x.p.Wait(sim.Time(n))
}

// Fence retires a memory fence. The blocking pipeline is always drained, so
// it costs a single cycle; it still matters for counting and for documenting
// where queue code needs ordering.
func (x *Ctx) Fence() {
	x.n.Instructions++
	x.n.Fences++
	x.p.Wait(1)
}

// translate resolves va, invoking the OS fault handler until it succeeds.
func (x *Ctx) translate(va mmu.VAddr, write bool) mem.PAddr {
	if x.core.mmu == nil {
		// Identity-mapped bare-metal core.
		return va
	}
	for attempt := 0; ; attempt++ {
		pa, err := x.core.mmu.Translate(x.p, va, write, x.core.User)
		if err == nil {
			return pa
		}
		pf := err.(*mmu.PageFault)
		if x.core.Fault == nil {
			panic(fmt.Sprintf("cpu%d: unhandled %v", x.core.ID, pf))
		}
		if attempt > 8 {
			panic(fmt.Sprintf("cpu%d: fault loop on %v", x.core.ID, pf))
		}
		if herr := x.core.Fault(x.p, pf); herr != nil {
			panic(fmt.Sprintf("cpu%d: fatal %v: %v", x.core.ID, pf, herr))
		}
	}
}

// Load retires a 64-bit load from virtual address va.
func (x *Ctx) Load(va mmu.VAddr) uint64 {
	x.n.Instructions++
	x.n.Loads++
	pa := x.translate(va, false)
	return x.core.cache.ReadU64(x.p, pa)
}

// Store retires a 64-bit store to virtual address va.
func (x *Ctx) Store(va mmu.VAddr, v uint64) {
	x.n.Instructions++
	x.n.Stores++
	pa := x.translate(va, true)
	x.core.cache.WriteU64(x.p, pa, v)
}

// MMIORead retires an uncached load: the core stalls for the full round
// trip (paper §2.1).
func (x *Ctx) MMIORead(addr uint64) uint64 {
	if x.core.mmioR == nil {
		panic("cpu: core has no MMIO port")
	}
	x.n.Instructions++
	x.n.MMIOReads++
	return x.core.mmioR.Read(x.p, addr)
}

// MMIOWrite retires an uncached store, also fully stalling.
func (x *Ctx) MMIOWrite(addr, val uint64) {
	if x.core.mmioR == nil {
		panic("cpu: core has no MMIO port")
	}
	x.n.Instructions++
	x.n.MMIOWrites++
	x.core.mmioR.Write(x.p, addr, val)
}
