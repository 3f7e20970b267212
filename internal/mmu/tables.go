package mmu

import (
	"fmt"

	"cohort/internal/mem"
)

// Tables manipulates an Sv39 page-table tree in simulated physical memory.
// This is the software (OS) side of the MMU: functional updates with no
// simulated timing — the OS model charges time separately.
type Tables struct {
	m     *mem.Memory
	alloc *mem.FrameAllocator
	root  mem.PAddr
}

// NewTables allocates an empty root table.
func NewTables(m *mem.Memory, alloc *mem.FrameAllocator) (*Tables, error) {
	root, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	return &Tables{m: m, alloc: alloc, root: root}, nil
}

// Root returns the physical address of the root table (what SATP holds).
func (t *Tables) Root() mem.PAddr { return t.root }

func (t *Tables) pteAddr(base mem.PAddr, va VAddr, level int) mem.PAddr {
	return base + mem.PAddr(vpn(va, level)*pteSize)
}

// descend returns the table one level below base for va, allocating an
// intermediate table if create is set.
func (t *Tables) descend(base mem.PAddr, va VAddr, level int, create bool) (mem.PAddr, error) {
	addr := t.pteAddr(base, va, level)
	pte := t.m.ReadU64(addr)
	f := pteFlags(pte)
	if f&FlagV != 0 {
		if pteLeaf(f) {
			return 0, fmt.Errorf("mmu: va %#x already mapped by a level-%d leaf", va, level)
		}
		return ptePA(pte), nil
	}
	if !create {
		return 0, fmt.Errorf("mmu: va %#x not mapped at level %d", va, level)
	}
	next, err := t.alloc.Alloc()
	if err != nil {
		return 0, err
	}
	t.m.WriteU64(addr, encodePTE(next, FlagV))
	return next, nil
}

// Map installs a 4 KiB mapping va -> pa with the given permission flags
// (FlagV is implied).
func (t *Tables) Map(va VAddr, pa mem.PAddr, flags Flags) error {
	if va%mem.PageSize != 0 || pa%mem.PageSize != 0 {
		return fmt.Errorf("mmu: Map requires page-aligned va/pa, got %#x -> %#x", va, pa)
	}
	l1, err := t.descend(t.root, va, 2, true)
	if err != nil {
		return err
	}
	l0, err := t.descend(l1, va, 1, true)
	if err != nil {
		return err
	}
	t.m.WriteU64(t.pteAddr(l0, va, 0), encodePTE(pa, flags|FlagV))
	return nil
}

// MapMega installs a 2 MiB megapage mapping (paper §4.1: Cohort benefits
// from huge pages exactly as cores do).
func (t *Tables) MapMega(va VAddr, pa mem.PAddr, flags Flags) error {
	if va%mem.MegaPageSize != 0 || pa%mem.MegaPageSize != 0 {
		return fmt.Errorf("mmu: MapMega requires 2 MiB-aligned va/pa, got %#x -> %#x", va, pa)
	}
	l1, err := t.descend(t.root, va, 2, true)
	if err != nil {
		return err
	}
	t.m.WriteU64(t.pteAddr(l1, va, 1), encodePTE(pa, flags|FlagV))
	return nil
}

// SetFlags rewrites the flags of an existing leaf mapping (used by the OS to
// set A/D on fault resolution). Returns the updated PTE and its level.
func (t *Tables) SetFlags(va VAddr, set Flags) (pte uint64, level int, err error) {
	base := t.root
	for level = 2; level >= 0; level-- {
		addr := t.pteAddr(base, va, level)
		pte = t.m.ReadU64(addr)
		f := pteFlags(pte)
		if f&FlagV == 0 {
			return 0, level, fmt.Errorf("mmu: SetFlags on unmapped va %#x", va)
		}
		if pteLeaf(f) {
			pte |= uint64(set)
			t.m.WriteU64(addr, pte)
			return pte, level, nil
		}
		base = ptePA(pte)
	}
	return 0, 0, fmt.Errorf("mmu: no leaf for va %#x", va)
}

// Lookup walks the table functionally (no timing), returning the physical
// address and leaf flags.
func (t *Tables) Lookup(va VAddr) (pa mem.PAddr, flags Flags, err error) {
	base := t.root
	for level := 2; level >= 0; level-- {
		pte := t.m.ReadU64(t.pteAddr(base, va, level))
		f := pteFlags(pte)
		if f&FlagV == 0 {
			return 0, 0, fmt.Errorf("mmu: va %#x not mapped", va)
		}
		if pteLeaf(f) {
			pageMask := uint64(1)<<(l0Shift+vpnBits*level) - 1
			return ptePA(pte)&^pageMask | (va & pageMask), f, nil
		}
		base = ptePA(pte)
	}
	return 0, 0, fmt.Errorf("mmu: va %#x not mapped", va)
}
