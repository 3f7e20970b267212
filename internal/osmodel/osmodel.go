// Package osmodel is the operating-system layer of the reproduction (§4.4):
// processes with Sv39 address spaces, demand paging, the single Cohort
// kernel driver (cohort_register / cohort_unregister syscalls, MMU
// notifiers, page-fault interrupt service), and MAPLE setup.
//
// The paper boots SMP Linux; here the kernel is modelled functionally with
// charged costs — syscalls and fault handling consume simulated cycles, the
// driver programs devices through real (simulated) MMIO writes issued by
// the calling core, and TLB shootdowns reach every MMU that mapped the
// process, exactly as the Linux MMU-notifier path does for the Cohort MMU.
package osmodel

import (
	"fmt"

	"cohort/internal/cpu"
	"cohort/internal/engine"
	"cohort/internal/maple"
	"cohort/internal/mem"
	"cohort/internal/mmu"
	"cohort/internal/noc"
	"cohort/internal/shmq"
	"cohort/internal/sim"
	"cohort/internal/soc"
)

// Costs are the kernel path lengths charged to software, in cycles.
type Costs struct {
	Syscall sim.Time // trap + entry + exit
	Fault   sim.Time // synchronous page-fault service on a core
	IRQ     sim.Time // Cohort page-fault interrupt service latency
	MapPage sim.Time // per-page table manipulation
}

// DefaultCosts reflect a lightweight embedded kernel.
func DefaultCosts() Costs {
	return Costs{Syscall: 400, Fault: 900, IRQ: 1200, MapPage: 150}
}

// OS is the kernel instance for one SoC.
type OS struct {
	SoC   *soc.SoC
	Costs Costs

	procs    []*Process
	byEngine map[*engine.Engine]*Process
}

// New boots the kernel: the Cohort driver probes at boot time and claims the
// page-fault interrupt lines on every core tile (§4.4).
func New(s *soc.SoC) *OS {
	os := &OS{SoC: s, Costs: DefaultCosts(), byEngine: make(map[*engine.Engine]*Process)}
	attached := map[int]bool{}
	for _, c := range s.Cores {
		if attached[c.Tile()] {
			continue
		}
		attached[c.Tile()] = true
		s.Net.Attach(c.Tile(), noc.PortIRQ, os.handleIRQ)
	}
	return os
}

// handleIRQ services a Cohort page-fault interrupt in kernel context after
// the modelled service latency. The interrupt's source tile names the
// faulting engine.
func (os *OS) handleIRQ(msg noc.Msg) {
	var e *engine.Engine
	for _, se := range os.SoC.Engines {
		if se.Tile() == msg.Src {
			e = se
		}
	}
	va, write := msg.Addr, msg.Flags&engine.IRQStore != 0
	os.SoC.K.After(os.Costs.IRQ, func() {
		pr := os.byEngine[e]
		if pr == nil {
			panic(fmt.Sprintf("osmodel: Cohort fault from tile %d, which has no registered engine", msg.Src))
		}
		if err := pr.fixFault(va, write); err != nil {
			panic(fmt.Sprintf("osmodel: unresolvable Cohort fault at %#x: %v", va, err))
		}
		// First resolution register: fault fixed, walker retries (§4.2.4).
		e.ResolveFault()
	})
}

// Process is one user process: an address space plus attached cores.
type Process struct {
	os     *OS
	Tables *mmu.Tables
	nextVA uint64
	lazy   []span // demand-paged regions
	mmus   []*mmu.MMU
	// engines registered by this process, for MMU-notifier shootdowns.
	engines []*engine.Engine
}

type span struct{ base, size uint64 }

// NewProcess creates an address space.
func (os *OS) NewProcess() (*Process, error) {
	tabs, err := mmu.NewTables(os.SoC.Mem, os.SoC.Frames)
	if err != nil {
		return nil, err
	}
	pr := &Process{os: os, Tables: tabs, nextVA: 0x10_0000}
	os.procs = append(os.procs, pr)
	return pr, nil
}

// AttachCore schedules the process on a core: points the core MMU at the
// process tables and installs the kernel's synchronous fault handler.
func (pr *Process) AttachCore(c *cpu.Core) {
	c.MMU().SetRoot(pr.Tables.Root())
	pr.mmus = append(pr.mmus, c.MMU())
	costs := pr.os.Costs
	c.Fault = func(p *sim.Proc, f *mmu.PageFault) error {
		p.Wait(costs.Fault)
		return pr.fixFault(f.VA, f.Write)
	}
}

const userRW = mmu.FlagR | mmu.FlagW | mmu.FlagU

// Alloc reserves size bytes of virtual address space. Eager allocations are
// mapped and marked accessed/dirty immediately (the pre-faulted buffers the
// benchmarks use); lazy ones materialize on first touch via the fault path.
func (pr *Process) Alloc(size uint64, eager bool) (uint64, error) {
	size = (size + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	va := pr.nextVA
	pr.nextVA += size + mem.PageSize // guard page
	if !eager {
		pr.lazy = append(pr.lazy, span{base: va, size: size})
		return va, nil
	}
	for off := uint64(0); off < size; off += mem.PageSize {
		pa, err := pr.os.SoC.Frames.Alloc()
		if err != nil {
			return 0, err
		}
		if err := pr.Tables.Map(va+off, pa, userRW|mmu.FlagA|mmu.FlagD); err != nil {
			return 0, err
		}
	}
	return va, nil
}

// AllocHuge reserves and eagerly maps size bytes backed by 2 MiB megapages
// (§4.1: a queue library adopting huge pages speeds up the Cohort MMU just
// as it does the cores').
func (pr *Process) AllocHuge(size uint64) (uint64, error) {
	size = (size + mem.MegaPageSize - 1) &^ uint64(mem.MegaPageSize-1)
	va := (pr.nextVA + mem.MegaPageSize - 1) &^ uint64(mem.MegaPageSize-1)
	pr.nextVA = va + size + mem.PageSize
	for off := uint64(0); off < size; off += mem.MegaPageSize {
		pa, err := pr.os.SoC.Frames.AllocAligned(mem.MegaPageSize, mem.MegaPageSize)
		if err != nil {
			return 0, err
		}
		if err := pr.Tables.MapMega(va+off, pa, userRW|mmu.FlagA|mmu.FlagD); err != nil {
			return 0, err
		}
	}
	return va, nil
}

// AllocQueue lays out and allocates one SPSC queue ("fifo_init"), eagerly
// mapped.
func (pr *Process) AllocQueue(elemSize, length uint64) (*shmq.Queue, error) {
	va, err := pr.Alloc(shmq.Footprint(elemSize, length), true)
	if err != nil {
		return nil, err
	}
	return shmq.New(shmq.Layout(va, elemSize, length))
}

// AllocPtrQueue allocates a *pointer-organised* queue (§4.1.1's other
// layout: the shared words hold wrapping VAs). The caller must Init it from
// a core before use.
func (pr *Process) AllocPtrQueue(elemSize, length uint64) (*shmq.PtrQueue, error) {
	va, err := pr.Alloc(shmq.Footprint(elemSize, length), true)
	if err != nil {
		return nil, err
	}
	d := shmq.Layout(va, elemSize, length)
	d.Mode = shmq.PointerMode
	return shmq.NewPtr(d)
}

// AllocQueueHuge is AllocQueue backed by megapages.
func (pr *Process) AllocQueueHuge(elemSize, length uint64) (*shmq.Queue, error) {
	va, err := pr.AllocHuge(shmq.Footprint(elemSize, length))
	if err != nil {
		return nil, err
	}
	return shmq.New(shmq.Layout(va, elemSize, length))
}

// ShareRegion maps the already-populated region [va, va+size) of this
// process into `other` at the same virtual address — the shared-memory
// segment two processes use for inter-process queues (§4.5: "allocating the
// queue once and sharing its memory across two processes"). The physical
// frames are shared, not copied.
func (pr *Process) ShareRegion(other *Process, va, size uint64) error {
	if va%mem.PageSize != 0 {
		return fmt.Errorf("osmodel: shared region must be page aligned, got %#x", va)
	}
	size = (size + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	for off := uint64(0); off < size; off += mem.PageSize {
		pa, flags, err := pr.Tables.Lookup(va + off)
		if err != nil {
			return fmt.Errorf("osmodel: share of unmapped page %#x: %w", va+off, err)
		}
		if err := other.Tables.Map(va+off, mem.PageOf(pa), flags); err != nil {
			return err
		}
	}
	return nil
}

// ShareQueue allocates a queue in this process and maps it into `other` too,
// returning independent software handles for the producer (this process) and
// consumer (other) sides.
func (pr *Process) ShareQueue(other *Process, elemSize, length uint64) (producer, consumer *shmq.Queue, err error) {
	q, err := pr.AllocQueue(elemSize, length)
	if err != nil {
		return nil, nil, err
	}
	base := q.Desc.WriteIdx // Layout places the write index first
	if err := pr.ShareRegion(other, base&^uint64(mem.PageSize-1), shmq.Footprint(elemSize, length)+base%mem.PageSize); err != nil {
		return nil, nil, err
	}
	consumerQ, err := shmq.New(q.Desc)
	if err != nil {
		return nil, nil, err
	}
	return q, consumerQ, nil
}

// fixFault services a page fault at va: demand-map lazy regions, set A/D on
// protection-clean PTEs.
func (pr *Process) fixFault(va uint64, write bool) error {
	page := va &^ uint64(mem.PageSize-1)
	if _, flags, err := pr.Tables.Lookup(va); err == nil {
		// Mapped but A (or D on store) clear.
		set := mmu.FlagA
		if write {
			set |= mmu.FlagD
		}
		if _, _, err := pr.Tables.SetFlags(page, set); err != nil {
			return err
		}
		_ = flags
		return nil
	}
	for _, sp := range pr.lazy {
		if va >= sp.base && va < sp.base+sp.size {
			pa, err := pr.os.SoC.Frames.Alloc()
			if err != nil {
				return err
			}
			return pr.Tables.Map(page, pa, userRW|mmu.FlagA|mmu.FlagD)
		}
	}
	return fmt.Errorf("segfault: va %#x not in any mapping", va)
}

// FlushTLBs performs a TLB shootdown across every MMU mapping this process:
// attached cores and, via the registered MMU notifiers, every Cohort engine
// (§4.4).
func (pr *Process) FlushTLBs() {
	for _, u := range pr.mmus {
		u.Flush()
	}
	for _, e := range pr.engines {
		e.FlushTLB()
	}
}

// RegisterCohortOptions tunes a cohort_register call.
type RegisterCohortOptions struct {
	Backoff     uint64 // RCM backoff; 0 = SoC default
	UpdateBlock uint64 // engine pointer-update granularity; 0 = device block size
	CSRVA       uint64 // accelerator config struct (0 = none)
	CSRLen      uint64
}

// RegisterCohort is the cohort_register syscall (§4.1.2, §4.4): the driver
// maps the engine's register bank, installs the MMU notifier, writes the
// queue descriptors, and enables the engine. Runs on the calling core,
// charging the syscall plus the real MMIO register writes.
func (os *OS) RegisterCohort(ctx *cpu.Ctx, pr *Process, e *engine.Engine, in, out shmq.Descriptor, opts RegisterCohortOptions) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if err := out.Validate(); err != nil {
		return err
	}
	ctx.Compute(int(os.Costs.Syscall))
	base := e.MMIOBase()
	backoff := opts.Backoff
	if backoff == 0 {
		backoff = os.SoC.Cfg.EngineBackoff
	}
	block := opts.UpdateBlock
	if block == 0 {
		if bd, ok := e.Device().(interface{ InWords() int }); ok {
			block = uint64(bd.InWords())
		} else {
			block = 1
		}
	}
	ctx.MMIOWrite(base+engine.RegSATP, pr.Tables.Root())
	ctx.MMIOWrite(base+engine.RegBackoff, backoff)
	ctx.MMIOWrite(base+engine.RegInBase, in.Base)
	ctx.MMIOWrite(base+engine.RegInElemSize, in.ElemSize)
	ctx.MMIOWrite(base+engine.RegInLen, in.Length)
	ctx.MMIOWrite(base+engine.RegInWIdx, in.WriteIdx)
	ctx.MMIOWrite(base+engine.RegInRIdx, in.ReadIdx)
	ctx.MMIOWrite(base+engine.RegInMode, uint64(in.Mode))
	ctx.MMIOWrite(base+engine.RegOutBase, out.Base)
	ctx.MMIOWrite(base+engine.RegOutElemSize, out.ElemSize)
	ctx.MMIOWrite(base+engine.RegOutLen, out.Length)
	ctx.MMIOWrite(base+engine.RegOutWIdx, out.WriteIdx)
	ctx.MMIOWrite(base+engine.RegOutRIdx, out.ReadIdx)
	ctx.MMIOWrite(base+engine.RegOutMode, uint64(out.Mode))
	ctx.MMIOWrite(base+engine.RegUpdateBlock, block)
	if opts.CSRLen > 0 {
		ctx.MMIOWrite(base+engine.RegCSRAddr, opts.CSRVA)
		ctx.MMIOWrite(base+engine.RegCSRLen, opts.CSRLen)
	} else {
		ctx.MMIOWrite(base+engine.RegCSRAddr, 0)
		ctx.MMIOWrite(base+engine.RegCSRLen, 0)
	}
	// MMU notifier registration (kernel bookkeeping).
	pr.engines = append(pr.engines, e)
	os.byEngine[e] = pr
	ctx.MMIOWrite(base+engine.RegEnable, 1)
	return nil
}

// UnregisterCohort is the cohort_unregister syscall: disables the engine and
// tears down the notifier.
func (os *OS) UnregisterCohort(ctx *cpu.Ctx, e *engine.Engine) {
	ctx.Compute(int(os.Costs.Syscall))
	ctx.MMIOWrite(e.MMIOBase()+engine.RegEnable, 0)
	if pr := os.byEngine[e]; pr != nil {
		for i, pe := range pr.engines {
			if pe == e {
				pr.engines = append(pr.engines[:i], pr.engines[i+1:]...)
				break
			}
		}
	}
	delete(os.byEngine, e)
}

// SetupMaple points a MAPLE unit's MMU at the process (the baseline's
// driver-side setup).
func (os *OS) SetupMaple(ctx *cpu.Ctx, pr *Process, u *maple.Unit) {
	ctx.Compute(int(os.Costs.Syscall))
	ctx.MMIOWrite(u.MMIOBase()+maple.RegSATP, pr.Tables.Root())
}
