package mmu

import (
	"errors"
	"math/rand"
	"testing"

	"cohort/internal/mem"
	"cohort/internal/sim"
)

// testEnv wires an MMU to raw memory with a counting read function.
type testEnv struct {
	k     *sim.Kernel
	m     *mem.Memory
	t     *Tables
	u     *MMU
	reads int
}

func newEnv(tb testing.TB, tlbEntries int) *testEnv {
	e := &testEnv{k: sim.New(), m: mem.New()}
	alloc := mem.NewFrameAllocator(0x100000, 256*mem.PageSize)
	tabs, err := NewTables(e.m, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	e.t = tabs
	e.u = New(tlbEntries, func(p *sim.Proc, pa mem.PAddr) uint64 {
		e.reads++
		p.Wait(10) // stand-in for a coherent PTE load
		return e.m.ReadU64(pa)
	})
	e.u.SetRoot(tabs.Root())
	return e
}

// inProc runs fn inside a sim process and drains the kernel.
func (e *testEnv) inProc(fn func(p *sim.Proc)) {
	e.k.Spawn("t", fn)
	e.k.Run(0)
}

const rwad = FlagR | FlagW | FlagU | FlagA | FlagD

func TestTranslate4K(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x4000_0000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		pa, err := e.u.Translate(p, 0x4000_0123, false, true)
		if err != nil {
			t.Errorf("Translate: %v", err)
			return
		}
		if pa != 0x8123 {
			t.Errorf("pa = %#x, want 0x8123", pa)
		}
	})
	st := e.u.Stats()
	if st.TLBMisses != 1 || st.Walks != 1 {
		t.Fatalf("stats %+v: want 1 miss, 1 walk", st)
	}
	if e.reads != 3 {
		t.Fatalf("walk issued %d PTE reads, want 3", e.reads)
	}
}

func TestTLBHitSkipsWalk(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x1000, 0x9000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		if _, err := e.u.Translate(p, 0x1000, false, true); err != nil {
			t.Errorf("first: %v", err)
		}
		before := e.reads
		if _, err := e.u.Translate(p, 0x1008, true, true); err != nil {
			t.Errorf("second: %v", err)
		}
		if e.reads != before {
			t.Errorf("TLB hit issued %d extra reads", e.reads-before)
		}
	})
	if st := e.u.Stats(); st.TLBHits != 1 {
		t.Fatalf("stats %+v: want 1 hit", st)
	}
}

func TestMegapage(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.MapMega(0x8000_0000, 0x20_0000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		pa, err := e.u.Translate(p, 0x8012_3456, false, true)
		if err != nil {
			t.Errorf("Translate: %v", err)
			return
		}
		if want := mem.PAddr(0x20_0000 + 0x12_3456); pa != want {
			t.Errorf("pa = %#x, want %#x", pa, want)
		}
		// A second VA inside the same 2 MiB page hits the TLB.
		if _, err := e.u.Translate(p, 0x801f_ffff, false, true); err != nil {
			t.Errorf("second: %v", err)
		}
	})
	if st := e.u.Stats(); st.TLBHits != 1 || st.Walks != 1 {
		t.Fatalf("stats %+v: want 1 hit, 1 walk", st)
	}
}

func TestUnmappedFault(t *testing.T) {
	e := newEnv(t, 16)
	e.inProc(func(p *sim.Proc) {
		_, err := e.u.Translate(p, 0xdead000, false, true)
		var pf *PageFault
		if !errors.As(err, &pf) {
			t.Errorf("err = %v, want PageFault", err)
			return
		}
		if pf.Reason != FaultNotMapped || pf.VA != 0xdead000 {
			t.Errorf("fault = %+v", pf)
		}
	})
}

func TestProtectionFaults(t *testing.T) {
	e := newEnv(t, 16)
	// Read-only page.
	if err := e.t.Map(0x1000, 0x8000, FlagR|FlagU|FlagA); err != nil {
		t.Fatal(err)
	}
	// Supervisor-only page.
	if err := e.t.Map(0x2000, 0x9000, FlagR|FlagW|FlagA|FlagD); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		if _, err := e.u.Translate(p, 0x1000, true, true); err == nil {
			t.Error("store to read-only page succeeded")
		} else if pf := err.(*PageFault); pf.Reason != FaultProtection {
			t.Errorf("reason = %v, want protection", pf.Reason)
		}
		if _, err := e.u.Translate(p, 0x2000, false, true); err == nil {
			t.Error("user access to supervisor page succeeded")
		}
		if _, err := e.u.Translate(p, 0x2000, false, false); err != nil {
			t.Errorf("supervisor access failed: %v", err)
		}
	})
}

func TestAccessedDirtyFaults(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x3000, 0xa000, FlagR|FlagW|FlagU); err != nil { // no A/D
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		_, err := e.u.Translate(p, 0x3000, false, true)
		pf := &PageFault{}
		if !errors.As(err, &pf) || pf.Reason != FaultAccessed {
			t.Errorf("want accessed fault, got %v", err)
		}
		// OS resolves: set A, retry read; then a store still needs D.
		if _, _, err := e.t.SetFlags(0x3000, FlagA); err != nil {
			t.Error(err)
		}
		e.u.Flush()
		if _, err := e.u.Translate(p, 0x3000, false, true); err != nil {
			t.Errorf("read after A set: %v", err)
		}
		if _, err := e.u.Translate(p, 0x3000, true, true); err == nil {
			t.Error("store with D clear succeeded")
		}
		if _, _, err := e.t.SetFlags(0x3000, FlagD); err != nil {
			t.Error(err)
		}
		e.u.Flush()
		if _, err := e.u.Translate(p, 0x3000, true, true); err != nil {
			t.Errorf("store after D set: %v", err)
		}
	})
}

func TestTLBEvictionLRU(t *testing.T) {
	e := newEnv(t, 4)
	for i := 0; i < 5; i++ {
		va := VAddr(0x10000 + i*mem.PageSize)
		if err := e.t.Map(va, mem.PAddr(0x80000+i*mem.PageSize), rwad); err != nil {
			t.Fatal(err)
		}
	}
	e.inProc(func(p *sim.Proc) {
		// Fill 4 entries, then touch page 0 to refresh it, then map in a 5th:
		// the LRU victim must be page 1, so re-touching page 0 still hits.
		for i := 0; i < 4; i++ {
			e.u.Translate(p, VAddr(0x10000+i*mem.PageSize), false, true)
		}
		e.u.Translate(p, 0x10000, false, true) // refresh 0
		e.u.Translate(p, VAddr(0x10000+4*mem.PageSize), false, true)
		before := e.u.Stats()
		e.u.Translate(p, 0x10000, false, true) // must still be resident
		after := e.u.Stats()
		if after.TLBHits != before.TLBHits+1 {
			t.Error("page 0 evicted despite being MRU")
		}
		e.u.Translate(p, VAddr(0x10000+1*mem.PageSize), false, true) // page 1 was victim
		if e.u.Stats().Walks != after.Walks+1 {
			t.Error("page 1 unexpectedly still resident")
		}
	})
}

func TestFlushForcesRewalk(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		e.u.Translate(p, 0x1000, false, true)
		e.u.Flush()
		e.u.Translate(p, 0x1000, false, true)
	})
	if st := e.u.Stats(); st.Walks != 2 {
		t.Fatalf("walks = %d after flush, want 2", st.Walks)
	}
}

func TestInsertDirectFill(t *testing.T) {
	// The second resolution register: the core writes a PTE straight into
	// the TLB, so no walk happens at all.
	e := newEnv(t, 16)
	e.u.Insert(0x7000, encodePTE(0xb000, rwad|FlagV), 0)
	e.inProc(func(p *sim.Proc) {
		pa, err := e.u.Translate(p, 0x7abc, false, true)
		if err != nil {
			t.Errorf("Translate: %v", err)
			return
		}
		if pa != 0xbabc {
			t.Errorf("pa = %#x, want 0xbabc", pa)
		}
	})
	if st := e.u.Stats(); st.Walks != 0 || st.TLBHits != 1 {
		t.Fatalf("stats %+v: want direct hit, no walk", st)
	}
}

// unmap clears the 4 KiB mapping for va, as an OS unmapping a page would.
func (t *Tables) unmap(va VAddr) {
	l1, err := t.descend(t.root, va, 2, false)
	if err != nil {
		return
	}
	l0, err := t.descend(l1, va, 1, false)
	if err != nil {
		return
	}
	t.m.WriteU64(t.pteAddr(l0, va, 0), 0)
}

func TestUnmapThenFault(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		e.u.Translate(p, 0x1000, false, true)
		e.t.unmap(0x1000)
		e.u.Flush() // TLB shootdown, as the MMU notifier would do
		if _, err := e.u.Translate(p, 0x1000, false, true); err == nil {
			t.Error("translation succeeded after unmap+flush")
		}
	})
}

func TestLookupFunctionalWalk(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.Map(0x5000, 0xc000, rwad); err != nil {
		t.Fatal(err)
	}
	pa, flags, err := e.t.Lookup(0x5678)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0xc678 || flags&FlagW == 0 {
		t.Fatalf("Lookup = %#x flags %#x", pa, flags)
	}
	if _, _, err := e.t.Lookup(0x9000); err == nil {
		t.Fatal("Lookup of unmapped va succeeded")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	e := newEnv(t, 16)
	if err := e.t.MapMega(0x20_0000, 0x20_0000, rwad); err != nil {
		t.Fatal(err)
	}
	if err := e.t.Map(0x20_0000, 0x8000, rwad); err == nil {
		t.Fatal("4K map under an existing megapage leaf accepted")
	}
	if err := e.t.Map(0x1234, 0x8000, rwad); err == nil {
		t.Fatal("unaligned map accepted")
	}
}

// Property: for random page mappings, hardware translation through the
// walker agrees with the functional table walk for every offset probed.
func TestTranslationAgreesWithLookupProperty(t *testing.T) {
	e := newEnv(t, 8)
	rng := rand.New(rand.NewSource(77))
	type mapping struct{ va, pa uint64 }
	var maps []mapping
	used := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		va := uint64(rng.Intn(1<<20)) << 12 // random 4K page in a 4 GiB window
		if used[va] {
			continue
		}
		used[va] = true
		pa := uint64(0x10_0000 + (i+256)*mem.PageSize) // outside the table pool? keep separate
		m := mapping{va: va, pa: uint64(0x4000_0000) + uint64(i)*mem.PageSize}
		_ = pa
		if err := e.t.Map(m.va, m.pa, rwad); err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	e.inProc(func(p *sim.Proc) {
		for _, m := range maps {
			off := uint64(rng.Intn(mem.PageSize))
			got, err := e.u.Translate(p, m.va+off, rng.Intn(2) == 0, true)
			if err != nil {
				t.Errorf("translate %#x: %v", m.va+off, err)
				continue
			}
			want, _, err := e.t.Lookup(m.va + off)
			if err != nil || got != want {
				t.Errorf("va %#x: walker %#x vs functional %#x (%v)", m.va+off, got, want, err)
			}
		}
	})
}

func TestTLBSmallestSize(t *testing.T) {
	e := newEnv(t, 1) // single-entry TLB must still be correct
	if err := e.t.Map(0x1000, 0x8000, rwad); err != nil {
		t.Fatal(err)
	}
	if err := e.t.Map(0x2000, 0x9000, rwad); err != nil {
		t.Fatal(err)
	}
	e.inProc(func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			a, _ := e.u.Translate(p, 0x1000, false, true)
			b, _ := e.u.Translate(p, 0x2000, false, true)
			if a != 0x8000 || b != 0x9000 {
				t.Errorf("iteration %d: %#x/%#x", i, a, b)
			}
		}
	})
	if e.u.Stats().Walks < 4 {
		t.Fatalf("single-entry TLB should thrash: %d walks", e.u.Stats().Walks)
	}
}

func TestZeroEntryTLBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-entry TLB accepted")
		}
	}()
	New(0, nil)
}
