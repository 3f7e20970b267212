package engine

import (
	"fmt"
	"testing"

	"cohort/internal/accel"
	"cohort/internal/coherence"
	"cohort/internal/mem"
	"cohort/internal/mmio"
	"cohort/internal/mmu"
	"cohort/internal/noc"
	"cohort/internal/shmq"
	"cohort/internal/sim"
)

// rig wires an engine directly to the fabric, bypassing the OS model so the
// register interface itself is under test.
type rig struct {
	k     *sim.Kernel
	net   *noc.Network
	m     *mem.Memory
	sys   *coherence.System
	bus   *mmio.Bus
	tabs  *mmu.Tables
	eng   *Engine
	req   *mmio.Requester
	base  uint64
	alloc *mem.FrameAllocator
}

const mmioBase = 0x4000_0000

func newRig(t *testing.T, dev accel.Device) *rig {
	t.Helper()
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	m := mem.New()
	cfg := coherence.DefaultConfig()
	cfg.DirLatency, cfg.MemLatency = 6, 20 // fast protocol for unit tests
	sys := coherence.NewSystem(k, net, m, cfg)
	bus := mmio.NewBus(k, net)
	alloc := mem.NewFrameAllocator(0x800_0000, 2048*mem.PageSize)
	tabs, err := mmu.NewTables(m, alloc)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{
		Kernel:   k,
		Net:      net,
		Bus:      bus,
		Tile:     2,
		MMIOBase: mmioBase,
		Cache:    sys.NewCache(2, "eng"),
		Device:   dev,
		IRQTile:  0,
	})
	// A trivial IRQ handler: resolve by setting A/D in the tables.
	net.Attach(0, noc.PortIRQ, func(msg noc.Msg) {
		if msg.Src != eng.Tile() {
			panic(fmt.Sprintf("IRQ from tile %d, engine is on %d", msg.Src, eng.Tile()))
		}
		page := msg.Addr &^ uint64(mem.PageSize-1)
		set := mmu.FlagA
		if msg.Flags&IRQStore != 0 {
			set |= mmu.FlagD
		}
		if _, _, err := tabs.SetFlags(page, set); err != nil {
			panic(err)
		}
		eng.ResolveFault()
	})
	return &rig{k: k, net: net, m: m, sys: sys, bus: bus, tabs: tabs,
		eng: eng, req: bus.Requester(0), base: mmioBase, alloc: alloc}
}

const rwad = mmu.FlagR | mmu.FlagW | mmu.FlagU | mmu.FlagA | mmu.FlagD

// mapQueue identity-maps a queue's footprint and returns its descriptor.
func (r *rig) mapQueue(t *testing.T, baseVA uint64, length uint64) shmq.Descriptor {
	t.Helper()
	size := shmq.Footprint(8, length)
	for off := uint64(0); off < size; off += mem.PageSize {
		if err := r.tabs.Map(baseVA+off, baseVA+off, rwad); err != nil {
			t.Fatal(err)
		}
	}
	return shmq.Layout(baseVA, 8, length)
}

// program writes all session registers via MMIO from a test proc.
func (r *rig) program(p *sim.Proc, in, out shmq.Descriptor, block uint64) {
	w := func(off, v uint64) { r.req.Write(p, r.base+off, v) }
	w(RegSATP, r.tabs.Root())
	w(RegBackoff, 8)
	w(RegInBase, in.Base)
	w(RegInElemSize, in.ElemSize)
	w(RegInLen, in.Length)
	w(RegInWIdx, in.WriteIdx)
	w(RegInRIdx, in.ReadIdx)
	w(RegOutBase, out.Base)
	w(RegOutElemSize, out.ElemSize)
	w(RegOutLen, out.Length)
	w(RegOutWIdx, out.WriteIdx)
	w(RegOutRIdx, out.ReadIdx)
	w(RegUpdateBlock, block)
	w(RegEnable, 1)
}

// rawPush appends v to the queue directly in physical memory (identity
// mapped) and bumps the write index coherently via a scratch cache... for
// unit tests we just use raw memory *before* enabling the engine.
func rawPush(m *mem.Memory, d shmq.Descriptor, vals ...uint64) {
	w := m.ReadU64(d.WriteIdx)
	for _, v := range vals {
		m.WriteU64(d.SlotVA(w%d.Length*8/8*0+w), 0) // silence linters; overwritten below
		m.WriteU64(d.Base+(w%d.Length)*8, v)
		w++
	}
	m.WriteU64(d.WriteIdx, w)
}

func TestRegisterBankReadback(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	var status0, status1, status2 uint64
	r.k.Spawn("driver", func(p *sim.Proc) {
		status0 = r.req.Read(p, r.base+RegStatus)
		r.program(p, in, out, 1)
		status1 = r.req.Read(p, r.base+RegStatus)
		r.req.Write(p, r.base+RegEnable, 0)
		status2 = r.req.Read(p, r.base+RegStatus)
	})
	r.k.Run(0)
	if status0 != 0 || status1 != 1 || status2 != 0 {
		t.Fatalf("status sequence %d,%d,%d, want 0,1,0", status0, status1, status2)
	}
}

func TestDataFlowsAndCountersReadViaMMIO(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	rawPush(r.m, in, 11, 22, 33)
	var elemsIn, elemsOut, ptr uint64
	r.k.Spawn("driver", func(p *sim.Proc) {
		r.program(p, in, out, 1)
		// Wait until the engine has drained the input.
		for r.m.ReadU64(in.ReadIdx) < 3 {
			p.Wait(200)
		}
		for r.m.ReadU64(out.WriteIdx) < 3 {
			p.Wait(200)
		}
		elemsIn = r.req.Read(p, r.base+RegCntElemsIn)
		elemsOut = r.req.Read(p, r.base+RegCntElemsOut)
		ptr = r.req.Read(p, r.base+RegCntPtrUpdates)
		r.req.Write(p, r.base+RegEnable, 0)
	})
	r.k.Run(0)
	for i, want := range []uint64{11, 22, 33} {
		if got := r.m.ReadU64(out.Base + uint64(8*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if elemsIn != 3 || elemsOut != 3 || ptr == 0 {
		t.Fatalf("counters in=%d out=%d ptr=%d", elemsIn, elemsOut, ptr)
	}
}

func TestEnableRejectsBadDescriptor(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	out := r.mapQueue(t, 0x20_0000, 16)
	bad := shmq.Descriptor{Base: 0x10_0000, ElemSize: 8, Length: 0, WriteIdx: 0x10_0100, ReadIdx: 0x10_0140}
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		r.k.Spawn("driver", func(p *sim.Proc) { r.program(p, bad, out, 1) })
		r.k.Run(0)
	}()
	if !panicked {
		t.Fatal("zero-length descriptor accepted")
	}
}

func TestEnableRejectsWideElements(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	in.ElemSize = 16 // §5: endpoints are 64-bit wide
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		r.k.Spawn("driver", func(p *sim.Proc) { r.program(p, in, out, 1) })
		r.k.Run(0)
	}()
	if !panicked {
		t.Fatal("16-byte elements accepted by 64-bit endpoints")
	}
}

func TestTLBInsertResolutionRegister(t *testing.T) {
	// The second fault-resolution path of §4.2.4: instead of fixing the
	// tables and re-walking, the handler writes the PTE straight into the
	// Cohort TLB.
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	rawPush(r.m, in, 7)
	r.k.Spawn("driver", func(p *sim.Proc) {
		r.program(p, in, out, 1)
		for r.m.ReadU64(out.WriteIdx) < 1 {
			p.Wait(100)
		}
		r.req.Write(p, r.base+RegEnable, 0)
		// The register path stages VA and PTE, then writes the level.
		walksBefore := r.eng.mmu.Stats().Walks
		r.req.Write(p, r.base+RegTLBInsertVA, 0x30_0000)
		r.req.Write(p, r.base+RegTLBInsertPTE, 0)
		r.req.Write(p, r.base+RegTLBInsert, 0)
		if r.eng.mmu.Stats().Walks != walksBefore {
			t.Error("a TLB insert through the registers walked the tables")
		}
	})
	r.k.Run(0)
}

func TestBackoffRegisterDelaysWakeup(t *testing.T) {
	run := func(backoff uint64) sim.Time {
		r := newRig(t, accel.NewNullDevice(1))
		in := r.mapQueue(t, 0x10_0000, 16)
		out := r.mapQueue(t, 0x20_0000, 16)
		var done sim.Time
		r.k.Spawn("driver", func(p *sim.Proc) {
			r.req.Write(p, r.base+RegBackoff, backoff)
			r.program(p, in, out, 1)
			r.req.Write(p, r.base+RegBackoff, backoff) // program() wrote 8; override
			p.Wait(3000)                               // let the engine go idle on an empty queue
			// Produce one element coherently via a helper cache on tile 1.
			helper := r.sys.NewCache(1, "helper")
			helper.WriteU64(p, in.Base, 99)
			helper.WriteU64(p, in.WriteIdx, 1)
			for r.m.ReadU64(out.WriteIdx) < 1 {
				p.Wait(50)
			}
			done = p.Now()
		})
		r.k.Run(0)
		return done
	}
	fast, slow := run(8), run(2000)
	if slow <= fast {
		t.Fatalf("backoff=2000 completed at %d, not later than backoff=8 at %d", slow, fast)
	}
}

func TestCSRLoadThroughMTE(t *testing.T) {
	r := newRig(t, accel.NewAESDevice())
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	// Key material in user memory (identity mapped page).
	keyVA := uint64(0x30_0000)
	if err := r.tabs.Map(keyVA, keyVA, rwad); err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef")
	r.m.Write(keyVA, key)
	pt := []byte("16 bytes of text")
	rawPush(r.m, in, accel.BytesToWords(pt)...)
	r.k.Spawn("driver", func(p *sim.Proc) {
		r.req.Write(p, r.base+RegCSRAddr, keyVA)
		r.req.Write(p, r.base+RegCSRLen, 16)
		r.program(p, in, out, 2)
		for r.m.ReadU64(out.WriteIdx) < 2 {
			p.Wait(200)
		}
		r.req.Write(p, r.base+RegEnable, 0)
	})
	r.k.Run(0)
	ref, _ := accel.NewAES(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	got := make([]byte, 16)
	r.m.Read(out.Base, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("CSR-configured key not applied by the engine's CSR load")
		}
	}
}

func TestDoubleEnablePanics(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		r.k.Spawn("driver", func(p *sim.Proc) {
			r.program(p, in, out, 1)
			r.req.Write(p, r.base+RegEnable, 1) // again, without disable
		})
		r.k.Run(0)
	}()
	if !panicked {
		t.Fatal("double enable accepted")
	}
}

func TestInvWakeupCounterIncrements(t *testing.T) {
	r := newRig(t, accel.NewNullDevice(1))
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	r.k.Spawn("driver", func(p *sim.Proc) {
		r.program(p, in, out, 1)
		p.Wait(2000) // engine parks on the empty input queue
		helper := r.sys.NewCache(1, "helper")
		helper.WriteU64(p, in.Base, 5)
		helper.WriteU64(p, in.WriteIdx, 1) // invalidates the engine's cached pointer line
		for r.m.ReadU64(out.WriteIdx) < 1 {
			p.Wait(50)
		}
	})
	r.k.Run(0)
	if r.eng.Stats().InvWakeups == 0 {
		t.Fatal("RCM never woke on the write-pointer invalidation")
	}
}

func TestCachedPointersAblationStillCorrect(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	m := mem.New()
	cfg := coherence.DefaultConfig()
	cfg.DirLatency, cfg.MemLatency = 6, 20
	sys := coherence.NewSystem(k, net, m, cfg)
	bus := mmio.NewBus(k, net)
	alloc := mem.NewFrameAllocator(0x800_0000, 256*mem.PageSize)
	tabs, _ := mmu.NewTables(m, alloc)
	eng := New(Config{
		Kernel: k, Net: net, Bus: bus, Tile: 2, MMIOBase: mmioBase,
		Cache: sys.NewCache(2, "eng"), Device: accel.NewNullDevice(1),
		IRQTile: 0, CachedPointers: true, // the ablation switch
	})
	_ = eng
	r := &rig{k: k, net: net, m: m, sys: sys, bus: bus, tabs: tabs,
		eng: eng, req: bus.Requester(0), base: mmioBase, alloc: alloc}
	in := r.mapQueue(t, 0x10_0000, 16)
	out := r.mapQueue(t, 0x20_0000, 16)
	rawPush(m, in, 42, 43)
	k.Spawn("driver", func(p *sim.Proc) {
		r.program(p, in, out, 1)
		// Cached pointers never reach raw memory until flushed, so poll the
		// engine's counters instead.
		for r.req.Read(p, r.base+RegCntElemsOut) < 2 {
			p.Wait(100)
		}
		r.req.Write(p, r.base+RegEnable, 0)
	})
	k.Run(0)
	sys.FlushForTest()
	if m.ReadU64(out.Base) != 42 || m.ReadU64(out.Base+8) != 43 {
		t.Fatal("cached-pointer ablation corrupted data flow")
	}
}
