package shmq

import (
	"testing"

	"cohort/internal/coherence"
	"cohort/internal/cpu"
	"cohort/internal/mem"
	"cohort/internal/mmu"
	"cohort/internal/noc"
	"cohort/internal/sim"
)

type rig struct {
	k    *sim.Kernel
	m    *mem.Memory
	sys  *coherence.System
	tabs *mmu.Tables
}

const rwad = mmu.FlagR | mmu.FlagW | mmu.FlagU | mmu.FlagA | mmu.FlagD

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
	// Identity-map a working region.
	for i := 0; i < 64; i++ {
		va := uint64(0x100_0000 + i*mem.PageSize)
		if err := tabs.Map(va, va, rwad); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{k: k, m: m, sys: sys, tabs: tabs}
}

func (r *rig) core(tile int) *cpu.Core {
	cache := r.sys.NewCache(tile, "l1")
	u := mmu.New(16, cache.ReadOnceU64)
	u.SetRoot(r.tabs.Root())
	return cpu.New(cpu.Config{ID: tile, Tile: tile, Kernel: r.k, Cache: cache, MMU: u})
}

func TestDescriptorValidation(t *testing.T) {
	good := Layout(0x100_0000, 8, 64)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Descriptor{
		{Base: 0x1000, ElemSize: 8, Length: 0, WriteIdx: 0x2000, ReadIdx: 0x3000},
		{Base: 0x1000, ElemSize: 7, Length: 8, WriteIdx: 0x2000, ReadIdx: 0x3000},
		{Base: 0x1001, ElemSize: 8, Length: 8, WriteIdx: 0x2000, ReadIdx: 0x3000},
		{Base: 0x1000, ElemSize: 8, Length: 8, WriteIdx: 0x2000, ReadIdx: 0x2008}, // shared line
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad descriptor %d accepted", i)
		}
	}
}

func TestSlotWraparound(t *testing.T) {
	d := Layout(0x100_0000, 8, 4)
	if d.SlotVA(0) != d.Base || d.SlotVA(4) != d.Base || d.SlotVA(5) != d.Base+8 {
		t.Fatal("slot addressing wrong")
	}
}

func TestProducerConsumerIntegrity(t *testing.T) {
	r := newRig(t)
	prod := r.core(0)
	cons := r.core(3)
	q1, err := New(Layout(0x100_0000, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	q2 := &Queue{Desc: q1.Desc} // consumer-side handle over the same memory
	const n = 200               // much larger than capacity: exercises full/empty
	var got []uint64
	prod.Run("producer", func(ctx *cpu.Ctx) {
		for i := 0; i < n; i++ {
			q1.PushBatch(ctx, []uint64{uint64(i)*3 + 1}, 1)
		}
	})
	cons.Run("consumer", func(ctx *cpu.Ctx) {
		for i := 0; i < n; i++ {
			got = append(got, q2.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.k.Run(0)
	if len(got) != n {
		t.Fatalf("consumed %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i)*3+1 {
			t.Fatalf("element %d = %d, want %d", i, v, uint64(i)*3+1)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	r := newRig(t)
	prod := r.core(0)
	cons := r.core(3)
	q1, _ := New(Layout(0x100_0000, 8, 64))
	q2 := &Queue{Desc: q1.Desc}
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(i * i)
	}
	var got []uint64
	prod.Run("producer", func(ctx *cpu.Ctx) {
		q1.PushBatch(ctx, vals, 16)
	})
	cons.Run("consumer", func(ctx *cpu.Ctx) {
		got = q2.PopBatch(ctx, len(vals), 16)
	})
	r.k.Run(0)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestBatchingReducesCoherenceTraffic(t *testing.T) {
	run := func(batch int) uint64 {
		r := newRig(t)
		prod := r.core(0)
		cons := r.core(3)
		q1, _ := New(Layout(0x100_0000, 8, 256))
		q2 := &Queue{Desc: q1.Desc}
		vals := make([]uint64, 512)
		prod.Run("producer", func(ctx *cpu.Ctx) { q1.PushBatch(ctx, vals, batch) })
		cons.Run("consumer", func(ctx *cpu.Ctx) { q2.PopBatch(ctx, len(vals), batch) })
		r.k.Run(0)
		return r.sys.Stats().InvSent
	}
	small, large := run(1), run(64)
	if large*2 >= small {
		t.Fatalf("batch=64 invalidations (%d) not well below batch=1 (%d)", large, small)
	}
}

func TestBatchingImprovesLatency(t *testing.T) {
	run := func(batch int) sim.Time {
		r := newRig(t)
		prod := r.core(0)
		cons := r.core(3)
		q1, _ := New(Layout(0x100_0000, 8, 256))
		q2 := &Queue{Desc: q1.Desc}
		vals := make([]uint64, 1024)
		prod.Run("producer", func(ctx *cpu.Ctx) { q1.PushBatch(ctx, vals, batch) })
		cons.Run("consumer", func(ctx *cpu.Ctx) { q2.PopBatch(ctx, len(vals), batch) })
		return r.k.Run(0)
	}
	if t1, t64 := run(1), run(64); t64 >= t1 {
		t.Fatalf("batch=64 (%d cycles) not faster than batch=1 (%d cycles)", t64, t1)
	}
}

func TestPushBlocksWhenFull(t *testing.T) {
	r := newRig(t)
	prod := r.core(0)
	cons := r.core(3)
	q1, _ := New(Layout(0x100_0000, 8, 4))
	q2 := &Queue{Desc: q1.Desc}
	var fifthPushDone, firstPopAt sim.Time
	prod.Run("producer", func(ctx *cpu.Ctx) {
		for i := 0; i < 5; i++ {
			q1.PushBatch(ctx, []uint64{uint64(i)}, 1)
		}
		fifthPushDone = ctx.Proc().Now()
	})
	cons.Run("consumer", func(ctx *cpu.Ctx) {
		ctx.Proc().Wait(5000)
		firstPopAt = ctx.Proc().Now()
		_ = q2.PopBatch(ctx, 1, 1)[0]
	})
	r.k.Run(0)
	if fifthPushDone <= firstPopAt {
		t.Fatalf("5th push into a 4-slot queue finished at %d, before the pop at %d", fifthPushDone, firstPopAt)
	}
}

func TestDescriptorModeArithmetic(t *testing.T) {
	d := Layout(0x100_0000, 8, 4)
	d.Mode = PointerMode
	base := d.Base
	if d.InitCursor() != base {
		t.Fatalf("InitCursor = %#x", d.InitCursor())
	}
	// Empty: r == w.
	if d.Available(base, base) != 0 || d.FreeSlots(base, base) != 3 {
		t.Fatalf("empty: avail=%d free=%d", d.Available(base, base), d.FreeSlots(base, base))
	}
	// Advance wraps at the end of the array.
	c := base
	for i := 0; i < 4; i++ {
		c = d.Next(c)
	}
	if c != base {
		t.Fatalf("cursor after full lap = %#x, want %#x", c, base)
	}
	if d.AdvanceN(base, 6) != base+2*8 {
		t.Fatalf("AdvanceN wrap wrong: %#x", d.AdvanceN(base, 6))
	}
	// Wrapped availability: w behind r in address space.
	w := base + 8
	r := base + 3*8
	if d.Available(r, w) != 2 { // slots 3,0 -> elements at r..w-1 wrapping
		t.Fatalf("wrapped avail = %d, want 2", d.Available(r, w))
	}
	if d.ContiguousRun(r) != 1 {
		t.Fatalf("ContiguousRun = %d, want 1", d.ContiguousRun(r))
	}
	// Index mode comparisons.
	di := Layout(0x100_0000, 8, 4)
	if di.Available(3, 7) != 4 || di.FreeSlots(3, 7) != 0 || di.Next(3) != 4 {
		t.Fatal("index-mode arithmetic wrong")
	}
	if di.ContiguousRun(3) != 1 || di.AdvanceN(3, 5) != 8 {
		t.Fatal("index-mode run/advance wrong")
	}
}

func TestPointerModeValidation(t *testing.T) {
	d := Layout(0x100_0000, 8, 1)
	d.Mode = PointerMode
	if err := d.Validate(); err == nil {
		t.Fatal("1-slot pointer queue accepted")
	}
	d2 := Layout(0x100_0000, 8, 4)
	d2.Mode = 9
	if err := d2.Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := NewPtr(Layout(0x100_0000, 8, 4)); err == nil {
		t.Fatal("NewPtr accepted an index-mode descriptor")
	}
}

func TestPtrQueueProducerConsumer(t *testing.T) {
	r := newRig(t)
	prod := r.core(0)
	cons := r.core(3)
	d := Layout(0x100_0000, 8, 8)
	d.Mode = PointerMode
	q1, err := NewPtr(d)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := NewPtr(d)
	const n = 100 // >> capacity: exercises wrap and the sacrificed slot
	var got []uint64
	ready := sim.NewSignal(r.k)
	prod.Run("producer", func(ctx *cpu.Ctx) {
		q1.Init(ctx)
		ready.Fire()
		for i := 0; i < n; i++ {
			q1.Push(ctx, uint64(i)*7+1)
		}
	})
	cons.Run("consumer", func(ctx *cpu.Ctx) {
		ready.Wait(ctx.Proc())
		for i := 0; i < n; i++ {
			got = append(got, q2.Pop(ctx))
		}
	})
	r.k.Run(0)
	if len(got) != n {
		t.Fatalf("consumed %d", len(got))
	}
	for i, v := range got {
		if v != uint64(i)*7+1 {
			t.Fatalf("element %d = %d", i, v)
		}
	}
}
