// Package shmq implements the paper's lingua franca (§3.2): lock-free
// single-producer/single-consumer queues living in ordinary (simulated)
// virtual memory, described to hardware by queue descriptors (§4.1.1).
//
// The layout follows high-performance software practice: the write index,
// the read index, and the element array each start on their own cache line,
// so the only coherence traffic between producer and consumer is the data
// itself plus one line per index update — which is exactly the traffic the
// Cohort engine's batching optimisation reduces.
//
// Indices are monotonically increasing 64-bit counters (never wrapped); the
// slot for index i is i % Length. Queue Coherence (§3.2) is the contract
// that the producer's data stores precede its write-index store (enforced
// here with a fence), so an observer of the new index also observes the
// data.
package shmq

import (
	"fmt"

	"cohort/internal/cpu"
	"cohort/internal/mem"
)

// spinPause is the pipeline pause inserted between failed full/empty checks
// (a PAUSE-style hint): the core stops retiring for a few cycles instead of
// spinning hot, which is both kinder to the coherence fabric and what makes
// measured IPC during queue waits realistic.
const spinPause = 24

// Mode selects how a queue's shared words encode progress: monotonically
// increasing element indices, or wrapping virtual-address pointers into the
// element array. Both organisations are common in real queue libraries, and
// §4.1.1 requires the descriptor to support "read and write indices versus
// pointers".
type Mode uint64

// Queue organisations.
const (
	IndexMode   Mode = iota // shared words hold unwrapped element counts
	PointerMode             // shared words hold VAs of the next slot
)

// Descriptor describes one SPSC queue to the Cohort engine (§4.1.1). All
// addresses are virtual, exactly as user space sees them.
type Descriptor struct {
	Base     uint64 // VA of the element array
	ElemSize uint64 // element size in bytes
	Length   uint64 // capacity in elements
	WriteIdx uint64 // VA of the 8-byte write index/pointer
	ReadIdx  uint64 // VA of the 8-byte read index/pointer
	Mode     Mode
}

// span returns the element array's byte length.
func (d Descriptor) span() uint64 { return d.Length * d.ElemSize }

// InitCursor returns the initial value the shared words must hold for an
// empty queue: 0 for index mode, Base for pointer mode. (Index-mode queues
// in zeroed memory are ready immediately; pointer-mode queues need the
// library to store Base into both words first.)
func (d Descriptor) InitCursor() uint64 {
	if d.Mode == PointerMode {
		return d.Base
	}
	return 0
}

// Available returns the number of elements ready to consume given the raw
// shared-word values r and w.
func (d Descriptor) Available(r, w uint64) uint64 {
	if d.Mode == PointerMode {
		return ((w - r + d.span()) % d.span()) / d.ElemSize
	}
	return w - r
}

// FreeSlots returns how many elements can still be produced. Pointer-mode
// rings cannot distinguish full from empty at w == r, so they sacrifice one
// slot, as pointer-based queue libraries do.
func (d Descriptor) FreeSlots(r, w uint64) uint64 {
	if d.Mode == PointerMode {
		return d.Length - 1 - d.Available(r, w)
	}
	return d.Length - (w - r)
}

// Next advances a cursor by one element.
func (d Descriptor) Next(c uint64) uint64 {
	if d.Mode == PointerMode {
		c += d.ElemSize
		if c >= d.Base+d.span() {
			c = d.Base
		}
		return c
	}
	return c + 1
}

// AddrOf returns the VA of the element a cursor designates.
func (d Descriptor) AddrOf(c uint64) uint64 {
	if d.Mode == PointerMode {
		return c
	}
	return d.SlotVA(c)
}

// ContiguousRun returns how many elements from the cursor onward occupy
// consecutive addresses before the ring wraps.
func (d Descriptor) ContiguousRun(c uint64) uint64 {
	if d.Mode == PointerMode {
		return (d.Base + d.span() - c) / d.ElemSize
	}
	return d.Length - c%d.Length
}

// AdvanceN advances a cursor by n elements.
func (d Descriptor) AdvanceN(c, n uint64) uint64 {
	if d.Mode == PointerMode {
		return d.Base + ((c-d.Base)+n*d.ElemSize)%d.span()
	}
	return c + n
}

// Validate checks the descriptor invariants the engine relies on.
func (d Descriptor) Validate() error {
	switch {
	case d.Length == 0:
		return fmt.Errorf("shmq: zero-length queue")
	case d.ElemSize == 0 || d.ElemSize%8 != 0:
		return fmt.Errorf("shmq: element size %d not a multiple of 8", d.ElemSize)
	case d.Base%8 != 0 || d.WriteIdx%8 != 0 || d.ReadIdx%8 != 0:
		return fmt.Errorf("shmq: unaligned descriptor fields")
	case mem.SameLine(d.WriteIdx, d.ReadIdx):
		return fmt.Errorf("shmq: read and write indices share a cache line (false sharing)")
	case d.Mode != IndexMode && d.Mode != PointerMode:
		return fmt.Errorf("shmq: unknown queue mode %d", d.Mode)
	case d.Mode == PointerMode && d.Length < 2:
		return fmt.Errorf("shmq: pointer-mode queues need >= 2 slots (one is sacrificed)")
	}
	return nil
}

// SlotVA returns the VA of the element at (unwrapped) index i.
func (d Descriptor) SlotVA(i uint64) uint64 {
	return d.Base + (i%d.Length)*d.ElemSize
}

// Footprint returns the bytes of virtual address space a queue with this
// layout occupies.
func Footprint(elemSize, length uint64) uint64 {
	return 2*mem.LineSize + elemSize*length
}

// Layout places a queue at baseVA: one line for the write index, one for the
// read index, then the element array.
func Layout(baseVA, elemSize, length uint64) Descriptor {
	return Descriptor{
		WriteIdx: baseVA,
		ReadIdx:  baseVA + mem.LineSize,
		Base:     baseVA + 2*mem.LineSize,
		ElemSize: elemSize,
		Length:   length,
	}
}

// Queue is the software side of an SPSC queue: the generic push/pop API of
// Table 1, executed on a simulated core, modelled on the paper's hand-rolled
// C implementation (§4.1.2): every unbatched push re-reads the remote read
// index and every unbatched pop re-reads the remote write index. The
// batching optimisation of §5.3 amortises exactly these shared-pointer
// accesses (and the local pointer publications) over the batch.
//
// The same object must not be used by two producers or two consumers (SPSC).
type Queue struct {
	Desc Descriptor

	localWrite  uint64 // producer's count of pushes
	cachedRead  uint64 // producer's last view of the read index
	localRead   uint64 // consumer's count of pops
	cachedWrite uint64 // consumer's last view of the write index
}

// New wraps a descriptor in a software queue handle ("fifo_init" is the
// allocation of the backing memory plus this).
func New(d Descriptor) (*Queue, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &Queue{Desc: d}, nil
}

// waitSpace spins until at least `need` free slots exist, re-reading the
// shared read index each iteration (as the unoptimised C push does).
func (q *Queue) waitSpace(ctx *cpu.Ctx, need uint64) {
	for {
		q.cachedRead = ctx.Load(q.Desc.ReadIdx)
		if q.Desc.Length-(q.localWrite-q.cachedRead) >= need {
			return
		}
		ctx.Compute(1) // spin-loop branch
		ctx.Proc().Wait(spinPause)
	}
}

// waitAvail spins until at least `need` elements are available, re-reading
// the shared write index each iteration.
func (q *Queue) waitAvail(ctx *cpu.Ctx, need uint64) {
	for {
		q.cachedWrite = ctx.Load(q.Desc.WriteIdx)
		if q.cachedWrite-q.localRead >= need {
			return
		}
		ctx.Compute(1)
		ctx.Proc().Wait(spinPause)
	}
}

// PushBatch appends all of vals, publishing the write index once per `batch`
// elements instead of per element — the software-oriented batching
// optimisation of §5.3 (Table 2's batching factor). The full-queue check
// still loads the shared read index per element, exactly as the unbatched
// hand-rolled push does: batching amortises the *updates*, and the remaining
// per-element check loads are the pointer false sharing §6.1 describes.
func (q *Queue) PushBatch(ctx *cpu.Ctx, vals []uint64, batch int) {
	if batch < 1 {
		batch = 1
	}
	pending := 0
	publish := func() {
		ctx.Fence()
		ctx.Store(q.Desc.WriteIdx, q.localWrite)
		pending = 0
	}
	for _, v := range vals {
		if pending > 0 && q.localWrite-q.cachedRead >= q.Desc.Length {
			// Queue looks full with unpublished elements: publish so the
			// consumer can drain (matters when batch > queue capacity).
			publish()
		}
		q.waitSpace(ctx, 1)
		ctx.Store(q.Desc.SlotVA(q.localWrite), v)
		q.localWrite++
		pending++
		if pending == batch {
			publish()
		}
	}
	if pending > 0 {
		publish()
	}
}

// PopBatch removes n elements, publishing the read index once per `batch`
// elements. As with PushBatch, the per-element empty check still loads the
// shared write index.
func (q *Queue) PopBatch(ctx *cpu.Ctx, n int, batch int) []uint64 {
	if batch < 1 {
		batch = 1
	}
	out := make([]uint64, 0, n)
	pending := 0
	for len(out) < n {
		q.waitAvail(ctx, 1)
		out = append(out, ctx.Load(q.Desc.SlotVA(q.localRead)))
		q.localRead++
		pending++
		if pending == batch {
			ctx.Store(q.Desc.ReadIdx, q.localRead)
			pending = 0
		}
	}
	if pending > 0 {
		ctx.Store(q.Desc.ReadIdx, q.localRead)
	}
	return out
}

// PtrQueue is the software side of a *pointer-organised* SPSC queue: the
// shared words hold wrapping virtual addresses rather than indices — the
// other common queue layout §4.1.1's descriptors must describe. One slot is
// sacrificed to disambiguate full from empty.
type PtrQueue struct {
	Desc Descriptor

	localWrite  uint64 // producer's VA cursor
	cachedRead  uint64
	localRead   uint64 // consumer's VA cursor
	cachedWrite uint64
}

// NewPtr wraps a pointer-mode descriptor. Call Init from a core before any
// push/pop (and before registering with an engine): pointer queues do not
// start valid in zeroed memory.
func NewPtr(d Descriptor) (*PtrQueue, error) {
	if d.Mode != PointerMode {
		return nil, fmt.Errorf("shmq: NewPtr requires a pointer-mode descriptor")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &PtrQueue{Desc: d, localWrite: d.Base, cachedRead: d.Base, localRead: d.Base, cachedWrite: d.Base}, nil
}

// Init stores the initial cursors (both equal to Base) into the shared
// words — the pointer library's fifo_init tail end.
func (q *PtrQueue) Init(ctx *cpu.Ctx) {
	ctx.Store(q.Desc.WriteIdx, q.Desc.InitCursor())
	ctx.Store(q.Desc.ReadIdx, q.Desc.InitCursor())
	ctx.Fence()
}

// Push appends one element, spinning while the queue is full.
func (q *PtrQueue) Push(ctx *cpu.Ctx, v uint64) {
	for {
		q.cachedRead = ctx.Load(q.Desc.ReadIdx)
		if q.Desc.FreeSlots(q.cachedRead, q.localWrite) >= 1 {
			break
		}
		ctx.Compute(1)
		ctx.Proc().Wait(spinPause)
	}
	ctx.Store(q.Desc.AddrOf(q.localWrite), v)
	q.localWrite = q.Desc.Next(q.localWrite)
	ctx.Fence()
	ctx.Store(q.Desc.WriteIdx, q.localWrite)
}

// Pop removes and returns one element, spinning while empty.
func (q *PtrQueue) Pop(ctx *cpu.Ctx) uint64 {
	for {
		q.cachedWrite = ctx.Load(q.Desc.WriteIdx)
		if q.Desc.Available(q.localRead, q.cachedWrite) >= 1 {
			break
		}
		ctx.Compute(1)
		ctx.Proc().Wait(spinPause)
	}
	v := ctx.Load(q.Desc.AddrOf(q.localRead))
	q.localRead = q.Desc.Next(q.localRead)
	ctx.Store(q.Desc.ReadIdx, q.localRead)
	return v
}
