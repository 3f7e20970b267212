package cpu

import (
	"testing"

	"cohort/internal/coherence"
	"cohort/internal/mem"
	"cohort/internal/mmio"
	"cohort/internal/mmu"
	"cohort/internal/noc"
	"cohort/internal/sim"
)

type rig struct {
	k    *sim.Kernel
	m    *mem.Memory
	sys  *coherence.System
	bus  *mmio.Bus
	tabs *mmu.Tables
}

func newRig(t *testing.T) *rig {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	m := mem.New()
	sys := coherence.NewSystem(k, net, m, coherence.DefaultConfig())
	alloc := mem.NewFrameAllocator(0x10_0000, 1024*mem.PageSize)
	tabs, err := mmu.NewTables(m, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, m: m, sys: sys, bus: mmio.NewBus(k, net), tabs: tabs}
}

const rwad = mmu.FlagR | mmu.FlagW | mmu.FlagU | mmu.FlagA | mmu.FlagD

func (r *rig) newCore(t *testing.T, id, tile int) *Core {
	cache := r.sys.NewCache(tile, "l1")
	u := mmu.New(16, cache.ReadOnceU64)
	u.SetRoot(r.tabs.Root())
	return New(Config{ID: id, Tile: tile, Kernel: r.k, Cache: cache, MMU: u, MMIOPort: r.bus.Requester(tile)})
}

func TestLoadStoreThroughVM(t *testing.T) {
	r := newRig(t)
	if err := r.tabs.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	core := r.newCore(t, 0, 0)
	var got uint64
	core.Run("prog", func(ctx *Ctx) {
		ctx.Store(0x1008, 1234)
		got = ctx.Load(0x1008)
	})
	r.k.Run(0)
	if got != 1234 {
		t.Fatalf("got %d", got)
	}
	// The value must physically live at PA 0x8008.
	r.sys.FlushForTest()
	if v := r.m.ReadU64(0x8008); v != 1234 {
		t.Fatalf("PA 0x8008 = %d, want 1234", v)
	}
}

func TestInstructionCountingAndIPC(t *testing.T) {
	r := newRig(t)
	if err := r.tabs.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	core := r.newCore(t, 0, 0)
	var n Counters
	var ipc float64
	core.Run("prog", func(ctx *Ctx) {
		// Warm the TLB and cache so the measured window is steady-state.
		ctx.Store(0x1000, 0)
		ctx.ResetCounters()
		ctx.Compute(100)
		for i := 0; i < 10; i++ {
			ctx.Store(0x1000+uint64(i)*8, uint64(i))
			_ = ctx.Load(0x1000 + uint64(i)*8)
		}
		ctx.Fence()
		n = ctx.Counters()
		ipc = ctx.IPC()
	})
	r.k.Run(0)
	if n.Instructions != 100+20+1 {
		t.Fatalf("instructions = %d, want 121", n.Instructions)
	}
	if n.Loads != 10 || n.Stores != 10 || n.Fences != 1 || n.Compute != 100 {
		t.Fatalf("counters %+v", n)
	}
	if ipc <= 0 || ipc > 1 {
		t.Fatalf("IPC = %v, want (0,1] for an in-order core", ipc)
	}
}

func TestMMIOStallsDropIPC(t *testing.T) {
	r := newRig(t)
	if err := r.tabs.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	r.bus.AttachDevice(3, 0x4000_0000, 0x1000, 20, func(mmio.Kind, uint64, uint64) uint64 { return 7 })
	core := r.newCore(t, 0, 0)
	var cachedIPC, mmioIPC float64
	core.Run("prog", func(ctx *Ctx) {
		ctx.Store(0x1000, 0) // warm
		ctx.ResetCounters()
		for i := 0; i < 50; i++ {
			_ = ctx.Load(0x1000)
		}
		cachedIPC = ctx.IPC()
		ctx.ResetCounters()
		for i := 0; i < 50; i++ {
			_ = ctx.MMIORead(0x4000_0000)
		}
		mmioIPC = ctx.IPC()
	})
	r.k.Run(0)
	if mmioIPC*4 > cachedIPC {
		t.Fatalf("MMIO IPC %.3f not far below cached IPC %.3f", mmioIPC, cachedIPC)
	}
}

func TestFaultHandlerDemandPaging(t *testing.T) {
	r := newRig(t)
	core := r.newCore(t, 0, 0)
	frames := mem.NewFrameAllocator(0x80_0000, 64*mem.PageSize)
	faults := 0
	core.Fault = func(p *sim.Proc, f *mmu.PageFault) error {
		faults++
		p.Wait(500) // trap + handler cost
		pa, err := frames.Alloc()
		if err != nil {
			return err
		}
		if err := r.tabs.Map(f.VA&^uint64(mem.PageSize-1), pa, rwad); err != nil {
			return err
		}
		core.MMU().Flush()
		return nil
	}
	var got uint64
	core.Run("prog", func(ctx *Ctx) {
		ctx.Store(0x7000_0000, 55) // demand-paged on first touch
		got = ctx.Load(0x7000_0000)
		_ = ctx.Load(0x7000_0008) // same page: no second fault
	})
	r.k.Run(0)
	if got != 55 || faults != 1 {
		t.Fatalf("got=%d faults=%d, want 55, 1", got, faults)
	}
}

func TestUnhandledFaultPanics(t *testing.T) {
	r := newRig(t)
	core := r.newCore(t, 0, 0)
	panicked := false
	core.Run("prog", func(ctx *Ctx) {
		defer func() { panicked = recover() != nil }()
		ctx.Load(0xdead_0000)
	})
	r.k.Run(0)
	if !panicked {
		t.Fatal("unmapped access with no handler did not panic")
	}
}

func TestBulkCopyBetweenCores(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 4; i++ {
		va := mmu.VAddr(0x1000 + i*mem.PageSize)
		if err := r.tabs.Map(va, mem.PAddr(0x8000+i*mem.PageSize), rwad); err != nil {
			t.Fatal(err)
		}
	}
	a := r.newCore(t, 0, 0)
	b := r.newCore(t, 1, 3)
	data := make([]uint64, 2*mem.PageSize/8)
	for i := range data {
		data[i] = uint64(i % 251)
	}
	got := make([]uint64, len(data))
	done := sim.NewSignal(r.k)
	a.Run("writer", func(ctx *Ctx) {
		storeWords(ctx, 0x1100, data) // crosses pages
		done.Fire()
	})
	b.Run("reader", func(ctx *Ctx) {
		done.Wait(ctx.Proc())
		loadWords(ctx, 0x1100, got)
	})
	r.k.Run(0)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

// storeWords and loadWords copy words through a core a dword at a time, as a
// memcpy loop would.
func storeWords(ctx *Ctx, va mmu.VAddr, ws []uint64) {
	for i, w := range ws {
		ctx.Store(va+mmu.VAddr(8*i), w)
	}
}

func loadWords(ctx *Ctx, va mmu.VAddr, ws []uint64) {
	for i := range ws {
		ws[i] = ctx.Load(va + mmu.VAddr(8*i))
	}
}

func TestLoadBytesCrossesPagesAndCounts(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 3; i++ {
		if err := r.tabs.Map(uint64(0x1000+i*mem.PageSize), uint64(0x8000+i*mem.PageSize), rwad); err != nil {
			t.Fatal(err)
		}
	}
	core := r.newCore(t, 0, 0)
	data := make([]uint64, 2*mem.PageSize/8)
	for i := range data {
		data[i] = uint64(i)
	}
	got := make([]uint64, len(data))
	var n Counters
	core.Run("prog", func(ctx *Ctx) {
		storeWords(ctx, 0x1800, data) // crosses two page boundaries
		ctx.ResetCounters()
		loadWords(ctx, 0x1800, got)
		n = ctx.Counters()
	})
	r.k.Run(0)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if wantLoads := uint64(len(data)); n.Loads != wantLoads {
		t.Fatalf("loads = %d, want %d", n.Loads, wantLoads)
	}
}

func TestMMIOWithoutPortPanics(t *testing.T) {
	r := newRig(t)
	cache := r.sys.NewCache(0, "l1")
	core := New(Config{ID: 0, Tile: 0, Kernel: r.k, Cache: cache})
	panicked := false
	core.Run("prog", func(ctx *Ctx) {
		defer func() { panicked = recover() != nil }()
		ctx.MMIORead(0x1000)
	})
	r.k.Run(0)
	if !panicked {
		t.Fatal("MMIO without a port did not panic")
	}
}

func TestIdentityMappedCoreWithoutMMU(t *testing.T) {
	r := newRig(t)
	cache := r.sys.NewCache(0, "l1")
	core := New(Config{ID: 0, Tile: 0, Kernel: r.k, Cache: cache}) // no MMU: bare metal
	var got uint64
	core.Run("prog", func(ctx *Ctx) {
		ctx.Store(0x9000, 5)
		got = ctx.Load(0x9000)
	})
	r.k.Run(0)
	if got != 5 {
		t.Fatalf("bare-metal core load = %d", got)
	}
}

func TestComputeZeroAndNegativeAreFree(t *testing.T) {
	r := newRig(t)
	core := r.newCore(t, 0, 0)
	core.Run("prog", func(ctx *Ctx) {
		ctx.ResetCounters()
		ctx.Compute(0)
		ctx.Compute(-5)
		if ctx.Counters().Instructions != 0 || ctx.Cycles() != 0 {
			t.Error("non-positive Compute consumed resources")
		}
	})
	r.k.Run(0)
}
