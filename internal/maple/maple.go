// Package maple models the baseline accelerator host of the evaluation
// (§5.1): a MAPLE decoupling unit repurposed to connect accelerators, with
// two traditional invocation paths:
//
//   - MMIO: the core writes input words and reads output words through
//     uncached registers. Every access is a non-speculative round trip, so
//     the core cannot overlap transfers — the word-by-word behaviour the
//     paper's MMIO baseline exhibits. Output-register reads stall (the
//     response is withheld) until the accelerator has produced a word.
//   - Coherent DMA: the core programs source/destination virtual addresses
//     and a length through MMIO, then waits on a doorbell read that only
//     returns when the unit has coherently fetched the input, streamed it
//     through the accelerator, and coherently stored the results. Like the
//     real modified MAPLE, the unit uses a RISC-V-style MMU rather than an
//     IOMMU; pages must be resident (pre-faulted) — faults are fatal.
package maple

import (
	"fmt"

	"cohort/internal/accel"
	"cohort/internal/coherence"
	"cohort/internal/mmio"
	"cohort/internal/mmu"
	"cohort/internal/sim"
)

// Register byte offsets within the unit's MMIO bank.
const (
	RegSATP    = 0x00 // page-table root for the unit's MMU
	RegDataIn  = 0x08 // write: feed one word to the accelerator
	RegDataOut = 0x10 // read: one result word (stalls until available)
	RegDMASrc  = 0x18 // DMA source VA
	RegDMADst  = 0x20 // DMA destination VA
	RegDMALen  = 0x28 // DMA length in bytes (a multiple of the block size)
	RegDMAKick = 0x30 // write: start; read: stalls until the transfer completes
	RegStatus  = 0x38 // read: 1 while a DMA is in flight

	RegCSRCommit = 0x40  // write byte count: configure the device from staged words
	RegCSRData   = 0x100 // staged CSR words at 0x100 + 8*i

	RegCntBase = 0x200 // counters: words in, words out, DMA ops, DMA bytes

	// RegBankSize is the MMIO window each unit claims.
	RegBankSize = 0x300
)

// Counters tracks unit activity.
type Counters struct {
	MMIOWordsIn  uint64
	MMIOWordsOut uint64
	DMAOps       uint64
	DMABytes     uint64
}

// Config assembles a unit on a tile.
type Config struct {
	Kernel   *sim.Kernel
	Bus      *mmio.Bus
	Tile     int
	MMIOBase uint64
	Cache    *coherence.Cache   // coherent port for DMA
	Device   *accel.BlockDevice // hosted accelerator

	TLBEntries  int
	MMIOLatency sim.Time
	QueueDepth  int
	// DMASetupDelay is the fixed per-transfer cost of the DMA path before
	// data moves: driver bookkeeping in the unit, prefetch-engine
	// programming, and TRI setup. This is the dominant term that makes
	// fine-grained DMA uncompetitive (§5.1).
	DMASetupDelay sim.Time
}

// Unit is one MAPLE instance hosting one accelerator.
type Unit struct {
	cfg Config
	mmu *mmu.MMU

	accIn, accOut *sim.Queue[uint64]
	inStage       *sim.Queue[uint64] // unbounded staging between MMIO writes and the device

	// Output routing: MMIO readers vs an active DMA.
	outBuf     []uint64
	outWaiters []func(uint64)
	dmaActive  bool
	dmaOut     *sim.Queue[uint64]

	dmaBusy     bool
	dmaSrc      uint64
	dmaDst      uint64
	dmaLen      uint64
	dmaDone     *sim.Signal
	kickWaiters []func(uint64)

	// The feeder and drainer are kernel-context state machines; feedFn and
	// drainFn are u.feed and u.drain, bound once.
	feedFn, drainFn func()

	csr   [64]uint64
	stats Counters

	// Trace-track names, precomputed at construction so tracing call sites
	// never format strings on the hot path.
	trkDMA  string
	trkMMIO string

	// Completion-flag support: after each DMA the unit coherently stores
	// the cumulative kick count to flagVA (when nonzero), so software can
	// spin on ordinary memory instead of stalling on MMIO.
	flagVA    uint64
	kickCount uint64
}

// New builds the unit, starts its accelerator, and attaches its registers.
func New(cfg Config) *Unit {
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MMIOLatency == 0 {
		cfg.MMIOLatency = 4
	}
	k := cfg.Kernel
	u := &Unit{
		cfg:     cfg,
		accIn:   sim.NewQueue[uint64](k, cfg.QueueDepth),
		accOut:  sim.NewQueue[uint64](k, cfg.QueueDepth),
		inStage: sim.NewQueue[uint64](k, 0),
		dmaOut:  sim.NewQueue[uint64](k, 0),
		dmaDone: sim.NewSignal(k),
		trkDMA:  fmt.Sprintf("maple%d.dma", cfg.Tile),
		trkMMIO: fmt.Sprintf("maple%d.mmio", cfg.Tile),
	}
	u.mmu = mmu.New(cfg.TLBEntries, cfg.Cache.ReadOnceU64)
	u.feedFn, u.drainFn = u.feed, u.drain
	cfg.Device.Start(k, u.accIn, u.accOut)
	k.After(0, u.feedFn)
	k.After(0, u.drainFn)
	cfg.Bus.AttachAsyncDevice(cfg.Tile, cfg.MMIOBase, RegBankSize, cfg.MMIOLatency, u.regAccess)
	return u
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() Counters { return u.stats }

// MMIOBase returns the unit's register base address.
func (u *Unit) MMIOBase() uint64 { return u.cfg.MMIOBase }

// SetCompletionFlag makes the unit store the cumulative DMA count to the
// given VA (coherently, like a P-Mesh TRI store) when each transfer
// completes. Pass 0 to disable.
func (u *Unit) SetCompletionFlag(va uint64) { u.flagVA = va }

// feed moves staged MMIO input words into the accelerator with
// backpressure, re-arming itself on whichever queue it waits for. A word
// leaves the stage only once the accelerator has taken it; nothing waits for
// room in the unbounded stage, so that order fires no different events.
func (u *Unit) feed() {
	for {
		v, ok := u.inStage.Peek()
		if !ok {
			u.inStage.NotifyNotEmpty(u.feedFn)
			return
		}
		if !u.accIn.TryPut(v) {
			u.accIn.NotifyNotFull(u.feedFn)
			return
		}
		u.inStage.TryGet()
	}
}

// drain routes accelerator output either to a pending DMA or to the MMIO
// output register.
func (u *Unit) drain() {
	for {
		v, ok := u.accOut.TryGet()
		if !ok {
			u.accOut.NotifyNotEmpty(u.drainFn)
			return
		}
		if u.dmaActive {
			if !u.dmaOut.TryPut(v) {
				panic("maple: unbounded DMA output queue refused a word")
			}
			continue
		}
		if len(u.outWaiters) > 0 {
			reply := u.outWaiters[0]
			// Shift rather than reslice, so appends reuse the backing array.
			u.outWaiters = u.outWaiters[:copy(u.outWaiters, u.outWaiters[1:])]
			u.stats.MMIOWordsOut++
			u.cfg.Kernel.TraceInstant(u.trkMMIO, "word-out")
			reply(v)
			continue
		}
		u.outBuf = append(u.outBuf, v)
	}
}

func (u *Unit) regAccess(kind mmio.Kind, addr, val uint64, reply func(uint64)) {
	off := addr - u.cfg.MMIOBase
	if kind == mmio.Read {
		u.regRead(off, reply)
		return
	}
	u.regWrite(off, val)
	reply(0)
}

func (u *Unit) regRead(off uint64, reply func(uint64)) {
	switch off {
	case RegDataOut:
		if len(u.outBuf) > 0 {
			v := u.outBuf[0]
			u.outBuf = u.outBuf[:copy(u.outBuf, u.outBuf[1:])] // keep the backing array
			u.stats.MMIOWordsOut++
			u.cfg.Kernel.TraceInstant(u.trkMMIO, "word-out")
			reply(v)
			return
		}
		u.outWaiters = append(u.outWaiters, reply) // stall the core
	case RegDMAKick:
		if !u.dmaBusy {
			reply(1)
			return
		}
		u.kickWaiters = append(u.kickWaiters, reply) // stall until done
	case RegStatus:
		if u.dmaBusy {
			reply(1)
		} else {
			reply(0)
		}
	case RegCntBase:
		reply(u.stats.MMIOWordsIn)
	case RegCntBase + 8:
		reply(u.stats.MMIOWordsOut)
	case RegCntBase + 16:
		reply(u.stats.DMAOps)
	case RegCntBase + 24:
		reply(u.stats.DMABytes)
	default:
		reply(0)
	}
}

func (u *Unit) regWrite(off, val uint64) {
	switch {
	case off == RegSATP:
		u.mmu.SetRoot(val)
	case off == RegDataIn:
		u.stats.MMIOWordsIn++
		u.cfg.Kernel.TraceInstant(u.trkMMIO, "word-in")
		if !u.inStage.TryPut(val) {
			panic("maple: unbounded stage refused a word")
		}
	case off == RegDMASrc:
		u.dmaSrc = val
	case off == RegDMADst:
		u.dmaDst = val
	case off == RegDMALen:
		u.dmaLen = val
	case off == RegDMAKick:
		u.startDMA()
	case off == RegCSRCommit:
		n := int(val)
		buf := accel.WordsToBytes(u.csr[:(n+7)/8])
		if err := u.cfg.Device.Configure(buf[:n]); err != nil {
			panic(fmt.Sprintf("maple: device configure: %v", err))
		}
	case off >= RegCSRData && off < RegCSRData+8*uint64(len(u.csr)):
		u.csr[(off-RegCSRData)/8] = val
	}
}

// translate resolves a VA through the unit's MMU; unlike Cohort, there is no
// fault path — software pins pages before programming a DMA.
func (u *Unit) translate(p *sim.Proc, va uint64, write bool) uint64 {
	pa, err := u.mmu.Translate(p, va, write, true)
	if err != nil {
		panic(fmt.Sprintf("maple: DMA page fault (pages must be pinned): %v", err))
	}
	return pa
}

// startDMA launches one coherent transfer: stream dmaLen bytes from dmaSrc
// through the accelerator into dmaDst.
func (u *Unit) startDMA() {
	if u.dmaBusy {
		panic("maple: DMA kick while busy")
	}
	dev := u.cfg.Device
	inWords := int(u.dmaLen / 8)
	if inWords%dev.InWords() != 0 {
		panic(fmt.Sprintf("maple: DMA length %d not a multiple of the %d-word block", u.dmaLen, dev.InWords()))
	}
	blocks := inWords / dev.InWords()
	outWords := blocks * dev.OutWords()
	u.dmaBusy = true
	u.dmaActive = true
	u.kickCount++
	u.cfg.Kernel.TraceInstant(u.trkDMA, "kick")
	u.stats.DMAOps++
	u.stats.DMABytes += u.dmaLen
	src, dst := u.dmaSrc, u.dmaDst
	k := u.cfg.Kernel
	kickAt := k.Now()

	k.Spawn(fmt.Sprintf("maple%d.dma-wr", u.cfg.Tile), func(p *sim.Proc) {
		p.Wait(u.cfg.DMASetupDelay)
		for i := 0; i < outWords; i++ {
			v := u.dmaOut.Get(p)
			u.cfg.Cache.WriteU64(p, u.translate(p, dst+uint64(8*i), true), v)
		}
		if u.flagVA != 0 {
			u.cfg.Cache.WriteU64(p, u.translate(p, u.flagVA, true), u.kickCount)
		}
		// The transfer span covers kick through the last coherent store; the
		// descriptor burst shows as one block per DMA on the unit's track.
		k.TraceSpan(u.trkDMA, "dma", kickAt)
		u.dmaActive = false
		u.dmaBusy = false
		for _, reply := range u.kickWaiters {
			reply(1)
		}
		u.kickWaiters = nil
		u.dmaDone.Fire()
	})
	k.Spawn(fmt.Sprintf("maple%d.dma-rd", u.cfg.Tile), func(p *sim.Proc) {
		p.Wait(u.cfg.DMASetupDelay)
		for i := 0; i < inWords; i++ {
			v := u.cfg.Cache.ReadU64(p, u.translate(p, src+uint64(8*i), false))
			u.accIn.Put(p, v)
		}
	})
}
