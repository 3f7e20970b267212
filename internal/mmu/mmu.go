// Package mmu implements the RISC-V Sv39 virtual-memory structures used by
// both the cores and the Cohort engine (paper §4.2.4): three-level page
// tables living in simulated physical memory, a small fully-associative TLB,
// and a hardware page-table walker that issues coherent reads. Faults are
// reported to the caller, which mirrors the paper's split: a core resolves
// its own faults via the OS, while the Cohort engine raises an interrupt and
// waits for one of its two resolution registers to be written.
package mmu

import (
	"fmt"

	"cohort/internal/mem"
	"cohort/internal/sim"
)

// Flags are Sv39 PTE permission/status bits.
type Flags uint16

const (
	FlagV Flags = 1 << 0 // valid
	FlagR Flags = 1 << 1 // readable
	FlagW Flags = 1 << 2 // writable
	FlagX Flags = 1 << 3 // executable
	FlagU Flags = 1 << 4 // user accessible
	// bit 5 (G, global) is not modelled
	FlagA Flags = 1 << 6 // accessed
	FlagD Flags = 1 << 7 // dirty
)

const (
	vaBits      = 39
	vpnBits     = 9
	pteSize     = 8
	l2Shift     = 30
	l1Shift     = 21
	l0Shift     = 12
	ptesPerPage = mem.PageSize / pteSize
)

// VAddr is a virtual byte address (39-bit canonical).
type VAddr = uint64

// encodePTE packs a physical page number and flags into a PTE word.
func encodePTE(pa mem.PAddr, f Flags) uint64 {
	return (uint64(pa)>>12)<<10 | uint64(f)
}

func pteFlags(pte uint64) Flags      { return Flags(pte & 0x3ff) }
func ptePA(pte uint64) mem.PAddr     { return mem.PAddr(pte>>10) << 12 }
func pteLeaf(f Flags) bool           { return f&(FlagR|FlagW|FlagX) != 0 }
func vpn(va VAddr, level int) uint64 { return (va >> (l0Shift + vpnBits*level)) & (1<<vpnBits - 1) }

// FaultReason distinguishes why a translation failed.
type FaultReason int

const (
	FaultNotMapped  FaultReason = iota // invalid PTE on the walk
	FaultProtection                    // permission bits deny the access
	FaultAccessed                      // A clear (or D clear on store): needs OS assist
)

func (r FaultReason) String() string {
	switch r {
	case FaultNotMapped:
		return "not-mapped"
	case FaultProtection:
		return "protection"
	case FaultAccessed:
		return "accessed/dirty"
	}
	return "?"
}

// PageFault is the error returned when translation fails.
type PageFault struct {
	VA     VAddr
	Write  bool
	User   bool
	Reason FaultReason
}

func (f *PageFault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	return fmt.Sprintf("page fault: %s at %#x (%s)", op, f.VA, f.Reason)
}

// ReadFn reads one aligned 64-bit PTE from physical memory with timing; the
// walker issues these through its owner's coherent cache port.
type ReadFn func(p *sim.Proc, pa mem.PAddr) uint64

// Stats counts MMU events.
type Stats struct {
	TLBHits   uint64
	TLBMisses uint64
	Walks     uint64
	Faults    uint64
	Flushes   uint64
}

type tlbEntry struct {
	valid bool
	vpnHi uint64 // VA >> shift for the entry's page size
	level int    // 0 = 4 KiB, 1 = 2 MiB megapage
	pte   uint64
	use   uint64
}

// MMU is one translation unit: a TLB plus a hardware walker. Not safe for
// concurrent use by multiple sim processes on different lines — serialize at
// the owner (cores and the Cohort MTE both do).
type MMU struct {
	read     ReadFn
	root     mem.PAddr
	rootSet  bool
	tlb      []tlbEntry
	useClock uint64
	stats    Stats
}

// New builds an MMU with `entries` TLB entries (the paper's Cohort TLB has
// 16) backed by the given PTE read function.
func New(entries int, read ReadFn) *MMU {
	if entries <= 0 {
		panic("mmu: TLB must have at least one entry")
	}
	return &MMU{read: read, tlb: make([]tlbEntry, entries)}
}

// SetRoot points the walker at a page-table root (the SATP write / "page
// base pointer" of §4.2.4) and flushes the TLB.
func (u *MMU) SetRoot(root mem.PAddr) {
	u.root = root
	u.rootSet = true
	u.Flush()
}

// Flush invalidates the whole TLB (the paper's TLB-flush register, driven by
// the OS MMU notifier).
func (u *MMU) Flush() {
	u.stats.Flushes++
	for i := range u.tlb {
		u.tlb[i].valid = false
	}
}

// Stats returns a copy of the counters.
func (u *MMU) Stats() Stats { return u.stats }

func (u *MMU) shift(level int) uint { return uint(l0Shift + vpnBits*level) }

func (u *MMU) tlbLookup(va VAddr) *tlbEntry {
	for i := range u.tlb {
		e := &u.tlb[i]
		if e.valid && va>>u.shift(e.level) == e.vpnHi {
			return e
		}
	}
	return nil
}

// Insert fills a TLB entry directly — the second fault-resolution register
// of §4.2.4, where the core writes the PTE straight into the Cohort TLB.
// level 0 maps a 4 KiB page, level 1 a 2 MiB megapage.
func (u *MMU) Insert(va VAddr, pte uint64, level int) {
	u.fill(va, pte, level)
}

func (u *MMU) fill(va VAddr, pte uint64, level int) {
	victim := &u.tlb[0]
	for i := range u.tlb {
		e := &u.tlb[i]
		if !e.valid {
			victim = e
			break
		}
		if e.use < victim.use {
			victim = e
		}
	}
	u.useClock++
	*victim = tlbEntry{valid: true, vpnHi: va >> u.shift(level), level: level, pte: pte, use: u.useClock}
}

func (u *MMU) check(va VAddr, pte uint64, level int, write, user bool) (mem.PAddr, error) {
	f := pteFlags(pte)
	switch {
	case write && f&FlagW == 0, !write && f&FlagR == 0, user && f&FlagU == 0:
		u.stats.Faults++
		return 0, &PageFault{VA: va, Write: write, User: user, Reason: FaultProtection}
	case f&FlagA == 0, write && f&FlagD == 0:
		// Like Ariane, the walker does not update A/D itself; the OS does.
		u.stats.Faults++
		return 0, &PageFault{VA: va, Write: write, User: user, Reason: FaultAccessed}
	}
	pageMask := uint64(1)<<u.shift(level) - 1
	return ptePA(pte)&^pageMask | (va & pageMask), nil
}

// Translate resolves va to a physical address, walking the page table on a
// TLB miss. A successful walk refills the TLB. Blocking process call (the
// walker's PTE reads take simulated time).
func (u *MMU) Translate(p *sim.Proc, va VAddr, write, user bool) (mem.PAddr, error) {
	if !u.rootSet {
		panic("mmu: Translate before SetRoot")
	}
	if e := u.tlbLookup(va); e != nil {
		u.stats.TLBHits++
		u.useClock++
		e.use = u.useClock
		pa, err := u.check(va, e.pte, e.level, write, user)
		if err != nil {
			// Permission/AD faults fall through to the OS; keep the entry —
			// the PTE itself is valid.
			return 0, err
		}
		return pa, nil
	}
	u.stats.TLBMisses++
	pte, level, err := u.walk(p, va, write, user)
	if err != nil {
		return 0, err
	}
	u.fill(va, pte, level)
	return u.check(va, pte, level, write, user)
}

// walk performs the 3-level Sv39 walk, reading PTEs through the coherent
// read function.
func (u *MMU) walk(p *sim.Proc, va VAddr, write, user bool) (pte uint64, level int, err error) {
	u.stats.Walks++
	base := u.root
	for level = 2; level >= 0; level-- {
		idx := vpn(va, level)
		pte = u.read(p, base+mem.PAddr(idx*pteSize))
		f := pteFlags(pte)
		if f&FlagV == 0 {
			u.stats.Faults++
			return 0, level, &PageFault{VA: va, Write: write, User: user, Reason: FaultNotMapped}
		}
		if pteLeaf(f) {
			if level > 1 {
				// Gigapages unsupported: treat as unmapped.
				u.stats.Faults++
				return 0, level, &PageFault{VA: va, Write: write, User: user, Reason: FaultNotMapped}
			}
			if level == 1 && ptePA(pte)&(mem.MegaPageSize-1) != 0 {
				// Misaligned megapage.
				u.stats.Faults++
				return 0, level, &PageFault{VA: va, Write: write, User: user, Reason: FaultNotMapped}
			}
			return pte, level, nil
		}
		base = ptePA(pte)
	}
	u.stats.Faults++
	return 0, 0, &PageFault{VA: va, Write: write, User: user, Reason: FaultNotMapped}
}
