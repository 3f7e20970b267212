// Package mem models the SoC's physical memory: a sparse, byte-addressable
// backing store shared by the cache hierarchy, the page-table walker, and the
// DMA engines. It also provides the line/page address arithmetic used across
// the memory system and a physical-frame allocator for the OS model.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PAddr is a physical byte address.
type PAddr = uint64

const (
	// LineSize is the coherence-unit size in bytes (OpenPiton uses 64 B
	// lines at the L2).
	LineSize = 64
	// PageSize is the base page size (Sv39 4 KiB).
	PageSize = 4096
	// MegaPageSize is the Sv39 2 MiB "huge page" size.
	MegaPageSize = 2 << 20
)

// LineOf returns the line-aligned base address containing pa.
func LineOf(pa PAddr) PAddr { return pa &^ (LineSize - 1) }

// LineOffset returns pa's offset within its line.
func LineOffset(pa PAddr) uint64 { return pa & (LineSize - 1) }

// PageOf returns the 4 KiB page base containing pa.
func PageOf(pa PAddr) PAddr { return pa &^ (PageSize - 1) }

// PageOffset returns pa's offset within its 4 KiB page.
func PageOffset(pa PAddr) uint64 { return pa & (PageSize - 1) }

// SameLine reports whether two addresses share a coherence line.
func SameLine(a, b PAddr) bool { return LineOf(a) == LineOf(b) }

// Memory is sparse physical memory. Untouched bytes read as zero. Memory is
// purely functional state: timing belongs to the cache/NoC models above it.
type Memory struct {
	pages map[PAddr]*[PageSize]byte
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[PAddr]*[PageSize]byte)} }

func (m *Memory) page(pa PAddr, create bool) *[PageSize]byte {
	base := PageOf(pa)
	pg := m.pages[base]
	if pg == nil && create {
		pg = new([PageSize]byte)
		m.pages[base] = pg
	}
	return pg
}

// Read copies len(buf) bytes starting at pa into buf.
func (m *Memory) Read(pa PAddr, buf []byte) {
	for len(buf) > 0 {
		off := PageOffset(pa)
		n := PageSize - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		if pg := m.page(pa, false); pg != nil {
			copy(buf[:n], pg[off:off+uint64(n)])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		pa += uint64(n)
	}
}

// Write copies data into memory starting at pa.
func (m *Memory) Write(pa PAddr, data []byte) {
	for len(data) > 0 {
		off := PageOffset(pa)
		n := PageSize - int(off)
		if n > len(data) {
			n = len(data)
		}
		pg := m.page(pa, true)
		copy(pg[off:off+uint64(n)], data[:n])
		data = data[n:]
		pa += uint64(n)
	}
}

// ReadU64 reads a little-endian 64-bit word. pa must be 8-byte aligned.
func (m *Memory) ReadU64(pa PAddr) uint64 {
	mustAlign(pa, 8)
	var b [8]byte
	m.Read(pa, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word. pa must be 8-byte aligned.
func (m *Memory) WriteU64(pa PAddr, v uint64) {
	mustAlign(pa, 8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(pa, b[:])
}

// WriteLine stores a full 64-byte line at the line containing pa.
func (m *Memory) WriteLine(pa PAddr, line [LineSize]byte) {
	m.Write(LineOf(pa), line[:])
}

func mustAlign(pa PAddr, n uint64) {
	if pa%n != 0 {
		panic(fmt.Sprintf("mem: address %#x not %d-byte aligned", pa, n))
	}
}

// FrameAllocator hands out physical 4 KiB frames from a region, used by the
// OS model to back page tables and user mappings.
type FrameAllocator struct {
	next PAddr
	end  PAddr
}

// NewFrameAllocator allocates frames in [base, base+size).
func NewFrameAllocator(base PAddr, size uint64) *FrameAllocator {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic("mem: frame allocator region must be page aligned")
	}
	return &FrameAllocator{next: base, end: base + size}
}

// Alloc returns the base address of a fresh zeroed frame.
func (a *FrameAllocator) Alloc() (PAddr, error) {
	if a.next >= a.end {
		return 0, fmt.Errorf("mem: out of physical frames (region exhausted at %#x)", a.end)
	}
	pa := a.next
	a.next += PageSize
	return pa, nil
}

// AllocAligned returns a frame region of size bytes aligned to align (both
// multiples of PageSize).
func (a *FrameAllocator) AllocAligned(size, align uint64) (PAddr, error) {
	if align < PageSize {
		align = PageSize
	}
	start := (a.next + align - 1) &^ (align - 1)
	if start+size > a.end {
		return 0, fmt.Errorf("mem: out of physical frames for %d bytes aligned %d", size, align)
	}
	a.next = start + size
	return start, nil
}
