// Package engine implements the Cohort engine (paper §4.2, Figure 6): the
// bridge between software shared-memory SPSC queues and an accelerator's
// latency-insensitive valid/ready streams.
//
// The engine's pieces map one-to-one onto the paper's block diagram:
//
//   - Uncached configuration registers — the only MMIO-visible part,
//     programmed by the kernel driver at cohort_register time.
//   - The Memory Transaction Engine (MTE) — wraps the engine's Sv39 MMU and
//     coherent cache port; translates endpoint accesses and turns page
//     faults into interrupts plus a wait on the resolution registers.
//   - The Reader Coherency Manager (RCM) — watches for invalidations on the
//     queue-pointer lines (that is the signal that software pushed or
//     popped), then waits out the configurable backoff before re-reading.
//   - The Write Coherency Manager (WCM) ordering — the producer endpoint
//     writes data strictly before publishing the write pointer, so a reader
//     observing the pointer also observes the data (Queue Coherence).
//   - Consumer and producer endpoints — processes that stream elements from
//     the input queue into the accelerator and from the accelerator into
//     the output queue, batching pointer updates by the accelerator's block
//     size to cut coherence traffic (§4.3).
package engine

import (
	"fmt"

	"cohort/internal/accel"
	"cohort/internal/coherence"
	"cohort/internal/mem"
	"cohort/internal/mmio"
	"cohort/internal/mmu"
	"cohort/internal/noc"
	"cohort/internal/shmq"
	"cohort/internal/sim"
)

// IRQStore flags a store fault in a page-fault interrupt. The engine sends
// the interrupt to a core tile's IRQ port from its own tile, which names it:
// Addr is the faulting VA and Flags holds IRQStore for a store. The OS
// resolves the fault and pokes the resolution registers.
const IRQStore = 1

// Counters are the engine's performance counters (§5.1: "performance counter
// data comes from each Cohort Engine").
type Counters struct {
	ElemsIn    uint64 // elements consumed from the input queue
	ElemsOut   uint64 // elements produced to the output queue
	InvWakeups uint64 // RCM wakeups from pointer-line invalidations
	PtrUpdates uint64 // read/write pointer stores issued
	Faults     uint64 // page faults taken by the Cohort MMU
}

// Config assembles an engine on a tile.
type Config struct {
	Kernel   *sim.Kernel
	Net      *noc.Network
	Bus      *mmio.Bus
	Tile     int
	MMIOBase uint64
	Cache    *coherence.Cache // the engine tile's coherent port (its "L1.5")
	Device   accel.Device
	IRQTile  int // core tile interrupted on page faults

	TLBEntries  int      // Cohort MMU TLB size (paper: 16)
	MMIOLatency sim.Time // register-bank access latency
	QueueDepth  int      // valid/ready buffering toward the accelerator

	// CachedPointers makes the WCM publish queue pointers through the
	// engine's cache instead of as uncached coherent write-throughs. The
	// default (false) matches the paper's WCM, whose pointer updates are
	// individual coherence operations issued by the MTE (§4.2.3); the
	// cached variant exists as an ablation.
	CachedPointers bool

	// BlockOverhead is the engine's fixed per-data-block FSM cost: ratchet
	// (re)assembly, endpoint arbitration for the MTE, and the CSR/handshake
	// state machine. Charged once per accelerator input block; it is why
	// small-block accelerators (AES: 2 words) amortise the engine worse
	// than large-block ones (SHA: 8 words) — §6.1's second factor.
	BlockOverhead sim.Time
}

type watchpoint struct {
	count uint64
	sig   *sim.Signal
}

// Engine is one Cohort engine instance.
type Engine struct {
	cfg Config
	mmu *mmu.MMU

	// Staged registers, snapshot at enable time.
	satp    uint64
	backoff uint64
	inD     shmq.Descriptor
	outD    shmq.Descriptor
	block   uint64
	csrAddr uint64
	csrLen  uint64

	gen     uint64 // session generation; bump disables the current session
	active  bool
	session *session

	faultVA    uint64
	faultKind  uint64
	resolveSig *sim.Signal
	insertVA   uint64
	insertPTE  uint64

	// The engine has a single Memory Transaction Engine (Figure 6): both
	// endpoints' memory operations serialize through it.
	mteBusy bool
	mteFree *sim.Signal

	prefetchBusy bool

	watch map[mem.PAddr]*watchpoint
	stats Counters

	// Trace-track names, precomputed at construction so call sites never
	// format a string when tracing is disabled.
	trkRCM  string
	trkMMU  string
	trkCons string
	trkProd string
}

// New builds an engine and attaches its register bank to the MMIO bus.
func New(cfg Config) *Engine {
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.MMIOLatency == 0 {
		cfg.MMIOLatency = 4
	}
	e := &Engine{
		cfg:        cfg,
		backoff:    16,
		block:      1,
		resolveSig: sim.NewSignal(cfg.Kernel),
		watch:      make(map[mem.PAddr]*watchpoint),
		mteFree:    sim.NewSignal(cfg.Kernel),
		trkRCM:     fmt.Sprintf("cohort%d.rcm", cfg.Tile),
		trkMMU:     fmt.Sprintf("cohort%d.mmu", cfg.Tile),
		trkCons:    fmt.Sprintf("cohort%d.consumer", cfg.Tile),
		trkProd:    fmt.Sprintf("cohort%d.producer", cfg.Tile),
	}
	e.mmu = mmu.New(cfg.TLBEntries, cfg.Cache.ReadOnceU64)
	cfg.Cache.OnInvalidate(e.onInvalidate)
	cfg.Bus.AttachDevice(cfg.Tile, cfg.MMIOBase, RegBankSize, cfg.MMIOLatency, e.regAccess)
	return e
}

// Stats returns a copy of the performance counters.
func (e *Engine) Stats() Counters { return e.stats }

// MMU exposes the Cohort MMU (for OS bookkeeping and tests).
func (e *Engine) MMU() *mmu.MMU { return e.mmu }

// Tile returns the engine's tile.
func (e *Engine) Tile() int { return e.cfg.Tile }

// MMIOBase returns the base address of the register bank.
func (e *Engine) MMIOBase() uint64 { return e.cfg.MMIOBase }

// Device returns the attached accelerator.
func (e *Engine) Device() accel.Device { return e.cfg.Device }

// onInvalidate is the RCM: invalidations matching a watched line wake the
// waiting endpoint.
func (e *Engine) onInvalidate(line mem.PAddr) {
	if wp, ok := e.watch[line]; ok {
		wp.count++
		e.stats.InvWakeups++
		e.cfg.Kernel.TraceInstant(e.trkRCM, "inv-wakeup")
		wp.sig.Fire()
	}
}

func (e *Engine) watchLine(line mem.PAddr) *watchpoint {
	wp, ok := e.watch[line]
	if !ok {
		wp = &watchpoint{sig: sim.NewSignal(e.cfg.Kernel)}
		e.watch[line] = wp
	}
	return wp
}

// regAccess services the uncached register bank (kernel context).
func (e *Engine) regAccess(kind mmio.Kind, addr, val uint64) uint64 {
	off := addr - e.cfg.MMIOBase
	if kind == mmio.Read {
		return e.regRead(off)
	}
	e.regWrite(off, val)
	return 0
}

func (e *Engine) regRead(off uint64) uint64 {
	switch off {
	case RegStatus:
		if e.active {
			return 1
		}
		return 0
	case RegFaultVA:
		return e.faultVA
	case RegFaultKind:
		return e.faultKind
	case RegCntElemsIn:
		return e.stats.ElemsIn
	case RegCntElemsOut:
		return e.stats.ElemsOut
	case RegCntInvWakeups:
		return e.stats.InvWakeups
	case RegCntPtrUpdates:
		return e.stats.PtrUpdates
	case RegCntFaults:
		return e.stats.Faults
	}
	return 0
}

func (e *Engine) regWrite(off, val uint64) {
	switch off {
	case RegEnable:
		if val != 0 {
			e.enable()
		} else {
			e.disable()
		}
	case RegSATP:
		e.satp = val
		e.mmu.SetRoot(val)
	case RegBackoff:
		e.backoff = val
	case RegInBase:
		e.inD.Base = val
	case RegInElemSize:
		e.inD.ElemSize = val
	case RegInLen:
		e.inD.Length = val
	case RegInWIdx:
		e.inD.WriteIdx = val
	case RegInRIdx:
		e.inD.ReadIdx = val
	case RegInMode:
		e.inD.Mode = shmq.Mode(val)
	case RegOutBase:
		e.outD.Base = val
	case RegOutElemSize:
		e.outD.ElemSize = val
	case RegOutLen:
		e.outD.Length = val
	case RegOutWIdx:
		e.outD.WriteIdx = val
	case RegOutRIdx:
		e.outD.ReadIdx = val
	case RegOutMode:
		e.outD.Mode = shmq.Mode(val)
	case RegUpdateBlock:
		e.block = val
	case RegTLBFlush:
		e.mmu.Flush()
	case RegFaultResolve:
		e.clearFault()
	case RegTLBInsertVA:
		e.insertVA = val
	case RegTLBInsertPTE:
		e.insertPTE = val
	case RegTLBInsert:
		e.mmu.Insert(e.insertVA, e.insertPTE, int(val))
		e.clearFault()
	case RegCSRAddr:
		e.csrAddr = val
	case RegCSRLen:
		e.csrLen = val
	}
}

func (e *Engine) clearFault() {
	e.faultVA = 0
	e.faultKind = FaultNone
	e.resolveSig.Fire()
}

// ResolveFault is the Go-side equivalent of writing RegFaultResolve, used by
// the kernel-context OS interrupt handler.
func (e *Engine) ResolveFault() { e.clearFault() }

// FlushTLB is the Go-side equivalent of writing RegTLBFlush.
func (e *Engine) FlushTLB() { e.mmu.Flush() }

// enable validates the staged registers and starts a session.
func (e *Engine) enable() {
	if e.active {
		panic("engine: enable while already active")
	}
	if err := e.inD.Validate(); err != nil {
		panic(fmt.Sprintf("engine: bad input descriptor: %v", err))
	}
	if err := e.outD.Validate(); err != nil {
		panic(fmt.Sprintf("engine: bad output descriptor: %v", err))
	}
	if e.inD.ElemSize != 8 || e.outD.ElemSize != 8 {
		panic("engine: prototype endpoints are 64-bit wide (§5: \"the producer and consumer endpoint accelerator interfaces are 64-bit wide\")")
	}
	e.gen++
	e.active = true
	k := e.cfg.Kernel
	s := &session{
		e:      e,
		gen:    e.gen,
		in:     e.inD,
		out:    e.outD,
		block:  e.block,
		accIn:  sim.NewQueue[uint64](k, e.cfg.QueueDepth),
		accOut: sim.NewQueue[uint64](k, e.cfg.QueueDepth),
	}
	if s.block < 1 {
		s.block = 1
	}
	// The producer endpoint writes per accelerator output block (§4.3).
	s.blockOut = s.block
	if bd, ok := e.cfg.Device.(interface{ OutWords() int }); ok {
		s.blockOut = uint64(bd.OutWords())
	}
	e.session = s
	e.cfg.Device.Start(k, s.accIn, s.accOut)
	k.Spawn(fmt.Sprintf("cohort%d", e.cfg.Tile), s.run)
}

// disable ends the current session. Like real hardware, the engine should be
// quiesced (queues drained) first; in-flight elements are not recovered.
func (e *Engine) disable() {
	e.gen++
	e.active = false
	e.session = nil
	// Wake anything parked on RCM watchpoints so it can observe the stale
	// generation and exit.
	for _, wp := range e.watch {
		wp.sig.Fire()
	}
}

// --- Memory Transaction Engine -------------------------------------------

// translate turns a VA into a PA, raising a fault interrupt and waiting for
// software resolution as needed (§4.2.4).
func (e *Engine) translate(p *sim.Proc, va uint64, write bool) mem.PAddr {
	for {
		pa, err := e.mmu.Translate(p, va, write, true)
		if err == nil {
			return pa
		}
		e.stats.Faults++
		e.faultVA = va
		e.faultKind = FaultLoad
		if write {
			e.faultKind = FaultStore
		}
		e.cfg.Kernel.TraceInstant(e.trkMMU, "page-fault-irq")
		irq := noc.Payload{Addr: va}
		if write {
			irq.Flags = IRQStore
		}
		e.cfg.Net.Send(e.cfg.Tile, e.cfg.IRQTile, noc.PortIRQ, 16, &irq)
		e.resolveSig.Wait(p)
	}
}

func (e *Engine) mteAcquire(p *sim.Proc) {
	for e.mteBusy {
		e.mteFree.Wait(p)
	}
	e.mteBusy = true
}

func (e *Engine) mteRelease() {
	e.mteBusy = false
	e.mteFree.Fire()
}

func (e *Engine) mteRead(p *sim.Proc, va uint64) uint64 {
	e.mteAcquire(p)
	defer e.mteRelease()
	return e.cfg.Cache.ReadU64(p, e.translate(p, va, false))
}

func (e *Engine) mteWrite(p *sim.Proc, va, v uint64) {
	e.mteAcquire(p)
	defer e.mteRelease()
	e.cfg.Cache.WriteU64(p, e.translate(p, va, true), v)
}

// mtePointerWrite publishes a queue pointer. The WCM issues these as
// uncached coherent write-throughs: the consumer's copy of the line is
// invalidated (that invalidation is the doorbell) and the engine never takes
// ownership of the pointer line, so every publication is a full coherence
// transaction — the cost the §5.3 batching optimisation amortises.
func (e *Engine) mtePointerWrite(p *sim.Proc, va, v uint64) {
	if e.cfg.CachedPointers {
		e.mteWrite(p, va, v)
		return
	}
	e.mteAcquire(p)
	defer e.mteRelease()
	e.cfg.Cache.WriteOnceU64(p, e.translate(p, va, true), v)
}

// --- Endpoints -------------------------------------------------------------

type session struct {
	e        *Engine
	gen      uint64
	in       shmq.Descriptor
	out      shmq.Descriptor
	block    uint64 // consumer-side pointer-update granularity (elements)
	blockOut uint64 // producer-side data-block size (elements)
	accIn    *sim.Queue[uint64]
	accOut   *sim.Queue[uint64]
}

func (s *session) alive() bool { return s.e.gen == s.gen }

// run performs session setup (CSR load) then forks the two endpoints.
func (s *session) run(p *sim.Proc) {
	e := s.e
	if e.csrLen > 0 {
		// §4.3: the engine fetches the virtually-contiguous CSR struct and
		// hands it to the accelerator before any data flows.
		buf := make([]byte, (e.csrLen+7)/8*8)
		for off := uint64(0); off < e.csrLen; off += 8 {
			w := e.mteRead(p, e.csrAddr+off)
			for b := 0; b < 8; b++ {
				buf[off+uint64(b)] = byte(w >> (8 * b))
			}
		}
		if err := e.cfg.Device.Configure(buf[:e.csrLen]); err != nil {
			panic(fmt.Sprintf("engine: device CSR configure: %v", err))
		}
	}
	if !s.alive() {
		return
	}
	e.cfg.Kernel.Spawn(p.Name()+".producer", s.producer)
	s.consumer(p)
}

// waitUpdate parks until the value at `va` (re-read by reread) changes from
// old: the RCM watches the line for an invalidation, then the backoff unit
// delays the re-read to let the writer finish its burst (§4.2.3). The whole
// stall is recorded as an "rcm-wait" span on the endpoint's track.
func (s *session) waitUpdate(p *sim.Proc, track string, wp *watchpoint, reread func() uint64, old uint64) (uint64, bool) {
	k := s.e.cfg.Kernel
	traced := k.TracingEnabled()
	var t0 sim.Time
	if traced {
		t0 = k.Now()
	}
	for s.alive() {
		c0 := wp.count
		v := reread()
		if v != old {
			if traced {
				k.TraceSpan(track, "rcm-wait", t0)
			}
			return v, true
		}
		if wp.count == c0 {
			wp.sig.Wait(p)
			if !s.alive() {
				return 0, false
			}
		}
		p.Wait(sim.Time(s.e.backoff))
	}
	return 0, false
}

// consumer is the consumer endpoint: ingress from the input queue to the
// accelerator (§4.2.1).
func (s *session) consumer(p *sim.Proc) {
	e := s.e
	d := s.in
	r := e.mteRead(p, d.ReadIdx)
	w := e.mteRead(p, d.WriteIdx)
	wp := e.watchLine(mem.LineOf(e.translate(p, d.WriteIdx, false)))
	pending := uint64(0)
	publish := func() {
		if pending > 0 {
			e.mtePointerWrite(p, d.ReadIdx, r)
			e.stats.PtrUpdates++
			e.cfg.Kernel.TraceInstant(e.trkCons, "publish-rptr")
			pending = 0
		}
	}
	for s.alive() {
		if d.Available(r, w) == 0 {
			// Input drained: let the producer reuse the slots, then sleep
			// until the write pointer's line is invalidated.
			publish()
			w2, ok := s.waitUpdate(p, e.trkCons, wp, func() uint64 { return e.mteRead(p, d.WriteIdx) }, w)
			if !ok {
				return
			}
			w = w2
			continue
		}
		v := e.mteRead(p, d.AddrOf(r))
		if next := d.Next(r); d.Available(next, w) > 0 && d.AddrOf(next)%mem.LineSize == 0 {
			// Sequential queue access (§4.1): stream the next line into the
			// engine's cache while the accelerator chews on this block.
			s.prefetch(d.AddrOf(next))
		}
		s.accIn.Put(p, v) // valid/ready handshake toward the accelerator
		if !s.alive() {
			return
		}
		r = d.Next(r)
		pending++
		e.stats.ElemsIn++
		if pending >= s.block {
			p.Wait(e.cfg.BlockOverhead) // per-block FSM / ratchet turnaround
			publish()
			// Conservative RTL: re-sample the write pointer at every block
			// boundary. Cached (1 cycle) unless the producer touched the
			// line — then this is the §6.1 false-sharing miss.
			w = e.mteRead(p, d.WriteIdx)
		} else if d.Available(r, w) == 0 {
			w = e.mteRead(p, d.WriteIdx)
		}
	}
}

// prefetch issues a best-effort background line fill. It has its own cache
// port (a one-entry prefetch buffer beside the MTE); translation faults drop
// the prefetch rather than interrupting anyone.
func (s *session) prefetch(va uint64) {
	e := s.e
	if e.prefetchBusy {
		return
	}
	e.prefetchBusy = true
	e.cfg.Kernel.Spawn("cohort.prefetch", func(p *sim.Proc) {
		defer func() { e.prefetchBusy = false }()
		pa, err := e.mmu.Translate(p, va, false, true)
		if err != nil {
			return
		}
		_ = e.cfg.Cache.ReadU64(p, pa)
	})
}

// producer is the producer endpoint: egress from the accelerator into the
// output queue (§4.2.2). Each accelerator output block is written as one
// coherent write-through transaction, strictly before the write-pointer
// publication — the WCM ordering guarantee. Neither the data nor the
// pointers are cached by the engine, so every block costs real coherence
// transactions; this is the per-block overhead that makes the low-latency,
// symmetric-movement AES accelerator gain less than SHA (§6.1).
func (s *session) producer(p *sim.Proc) {
	e := s.e
	d := s.out
	w := e.mteRead(p, d.WriteIdx)
	rCached := e.mteRead(p, d.ReadIdx)
	wp := e.watchLine(mem.LineOf(e.translate(p, d.ReadIdx, false)))
	buf := make([]uint64, 0, int(s.blockOut))
	for s.alive() {
		// Gather one output block (or whatever the accelerator has ready —
		// partial blocks flush immediately so software never waits on data
		// the accelerator already produced).
		v, ok := s.accOut.TryGet()
		if !ok {
			v = s.accOut.Get(p)
			if !s.alive() {
				return
			}
		}
		buf = append(buf[:0], v)
		for uint64(len(buf)) < s.blockOut {
			v, ok := s.accOut.TryGet()
			if !ok {
				break
			}
			buf = append(buf, v)
		}
		// Re-sample the read pointer at each block boundary (the reciprocal
		// §6.1 false-sharing coupling: the core's pop-side pointer stores
		// invalidate this line).
		rCached = e.mteRead(p, d.ReadIdx)
		for d.FreeSlots(rCached, w) < uint64(len(buf)) { // not enough space
			r2, ok := s.waitUpdate(p, e.trkProd, wp, func() uint64 { return e.mteRead(p, d.ReadIdx) }, rCached)
			if !ok {
				return
			}
			rCached = r2
		}
		s.writeBlock(p, d, w, buf)
		w = d.AdvanceN(w, uint64(len(buf)))
		e.stats.ElemsOut += uint64(len(buf))
		e.mtePointerWrite(p, d.WriteIdx, w)
		e.stats.PtrUpdates++
		e.cfg.Kernel.TraceInstant(e.trkProd, "publish-wptr")
	}
}

// writeBlock performs the block's data stores as write-through transactions,
// splitting on queue wrap-around and page boundaries.
func (s *session) writeBlock(p *sim.Proc, d shmq.Descriptor, cursor uint64, words []uint64) {
	e := s.e
	for len(words) > 0 {
		// Contiguous run: up to the wrap point and within one line.
		n := int(d.ContiguousRun(cursor))
		va := d.AddrOf(cursor)
		if lineRoom := (mem.LineSize - int(va%mem.LineSize)) / 8; n > lineRoom {
			n = lineRoom
		}
		if n > len(words) {
			n = len(words)
		}
		e.mteAcquire(p)
		e.cfg.Cache.WriteOnceSpan(p, e.translate(p, va, true), words[:n])
		e.mteRelease()
		cursor = d.AdvanceN(cursor, uint64(n))
		words = words[n:]
	}
}
