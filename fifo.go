// Package cohort is a Go implementation of Software-Oriented Acceleration
// (Wei et al., "Cohort: Software-Oriented Acceleration for Heterogeneous
// SoCs", ASPLOS 2023): accelerators are programmed through ordinary
// shared-memory SPSC queues — push data in, pop results out — instead of
// bespoke driver APIs.
//
// The package has two layers:
//
//   - The functional runtime in this package: lock-free SPSC queues
//     (Fifo), the Table 1 programming model (NewFifo/Push/Pop +
//     Register/Unregister), and real streaming accelerators (SHA-256,
//     AES-128, an H.264-style encoder, STFT) that run as "engine"
//     goroutines, supporting transparent accelerator chaining and runtime
//     reconfiguration exactly like the paper's hardware engines.
//
//   - The cycle-level SoC simulation under internal/ (cores, P-Mesh-style
//     NoC, MESI coherence, Sv39 MMUs, the Cohort engine and the MMIO/DMA
//     baselines), which reproduces the paper's evaluation; see DESIGN.md
//     and EXPERIMENTS.md, cmd/cohortbench, and bench_test.go.
package cohort

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
)

// Fifo is a lock-free single-producer single-consumer queue — the software
// abstraction the whole Cohort model builds on (§3.2). One goroutine may
// push and one may pop concurrently; an element pushed before a write-index
// publication is fully visible to the consumer that observes the
// publication (queue coherence).
type Fifo[T any] struct {
	buf  []T
	mask uint64
	// scrub is whether a consumed slot is cleared: only when T holds
	// pointers, whose references the GC would otherwise keep alive. Decided
	// once, in NewFifo.
	scrub bool

	// Producer and consumer index words live apart to avoid false sharing,
	// with each side caching its last view of the other's index.
	_    [64]byte
	tail atomic.Uint64 // next slot to write (producer-owned)
	_    [64]byte
	head atomic.Uint64 // next slot to read (consumer-owned)
	_    [64]byte

	cachedHead uint64               // producer's view of head
	pushStalls uint64               // producer-owned: failed push attempts (queue full)
	highWater  uint64               // producer-owned: max occupancy seen at publication
	closedTx   bool                 // producer-owned: Close was called (guards further pushes)
	pushBell   atomic.Pointer[Bell] // rung after each write publication (OnPush)
	_          [64]byte
	cachedTail uint64               // consumer's view of tail
	popStalls  uint64               // consumer-owned: failed pop attempts (queue empty)
	popBell    atomic.Pointer[Bell] // rung after each read publication (OnPop)
	_          [64]byte

	// closed is the consumer-visible end-of-stream flag. It is written once
	// (by Close, on the producer side) and read by the consumer only on empty
	// polls, so it lives on its own line to keep it off both hot paths.
	closed atomic.Bool
}

// FifoStats is a snapshot of a queue's counters. Pushes and Pops fall out of
// the ring's cumulative indices, so the happy path costs nothing extra; the
// stall counters and high-water mark live on the owning side's cache line and
// are plain (unsynchronized) words. Stats is exact when both sides are
// quiescent; under concurrency the values are monotone counters that may lag
// by in-flight operations.
type FifoStats struct {
	Pushes     uint64 // elements ever pushed (the cumulative write index)
	Pops       uint64 // elements ever popped (the cumulative read index)
	PushStalls uint64 // push attempts that found the queue full
	PopStalls  uint64 // pop attempts that found the queue empty
	HighWater  uint64 // maximum occupancy observed at a write publication
}

// Stats snapshots the queue's counters. See FifoStats for the concurrency
// contract.
func (q *Fifo[T]) Stats() FifoStats {
	return FifoStats{
		Pushes:     q.tail.Load(),
		Pops:       q.head.Load(),
		PushStalls: q.pushStalls,
		PopStalls:  q.popStalls,
		HighWater:  q.highWater,
	}
}

// noteOccupancy updates the producer-side high-water mark after a
// publication. occ is the producer's occupancy view (an upper bound, since
// its cached head may lag), clamped to capacity by the push guards.
func (q *Fifo[T]) noteOccupancy(occ uint64) {
	if occ > q.highWater {
		q.highWater = occ
	}
}

// OnPush attaches b as the queue's push doorbell: every write-index
// publication (TryPush, TryPushSlice, CommitWrite and the blocking forms
// built on them) and Close rings it, waking a consumer parked on b. A nil b
// detaches. Safe to call while the queue is in use; a publication racing
// with the call may ring the old bell or the new one. An engine owns its
// input's push bell and its output's pop bell while it runs (Register).
func (q *Fifo[T]) OnPush(b *Bell) { q.pushBell.Store(b) }

// OnPop attaches b as the queue's pop doorbell: every read-index
// publication (TryPop, TryPopInto, CommitRead and the blocking forms built
// on them) rings it, waking a producer parked on b for room. A nil b
// detaches; the same concurrency contract as OnPush applies.
func (q *Fifo[T]) OnPop(b *Bell) { q.popBell.Store(b) }

// NewFifo allocates a queue with capacity rounded up to a power of two
// ("fifo_init" in Table 1; there is no fifo_deinit — the GC is the
// deallocation routine).
func NewFifo[T any](capacity int) (*Fifo[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cohort: fifo capacity must be positive, got %d", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Fifo[T]{buf: make([]T, n), mask: uint64(n) - 1, scrub: hasPointers(reflect.TypeOf((*T)(nil)).Elem())}, nil
}

// hasPointers reports whether a value of type t holds a pointer the GC
// follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// Cap returns the queue capacity.
func (q *Fifo[T]) Cap() int { return len(q.buf) }

// Close marks the producer side finished: an end-of-stream signal, not a
// deallocation (the GC remains "fifo_deinit"). It belongs to the push side's
// ownership domain — call it from the producer goroutine, after the last
// push. Idempotent.
//
// Interaction with the rest of the API:
//
//   - Push-side calls (TryPush, Push, TryPushSlice, PushSlice, PushAll,
//     WriteSegments) panic after Close: pushing into a finished stream is a
//     programming error, and the guard is a producer-owned plain bool so the
//     hot path pays one predictable branch.
//   - Pop-side calls are unchanged and keep returning queued elements until
//     the queue is empty. The blocking forms (Pop, PopSlice, PopN) do NOT
//     unblock at end of stream — a consumer that must survive a producer
//     finishing mid-read should loop on TryPopInto and check Drained on each
//     empty poll, which is exactly what Engine does to drain cleanly instead
//     of requiring an Unregister mid-stream.
func (q *Fifo[T]) Close() {
	if q.closedTx {
		return
	}
	q.closedTx = true
	q.closed.Store(true)
	ring(&q.pushBell)
}

// Closed reports whether the producer has closed the queue. Elements may
// still be pending; see Drained.
func (q *Fifo[T]) Closed() bool { return q.closed.Load() }

// Drained reports whether the stream is finished: the producer has closed
// the queue and every element has been consumed. The closed flag is loaded
// before the indices — nothing can be pushed after Close, so a true result
// is final.
func (q *Fifo[T]) Drained() bool {
	if !q.closed.Load() {
		return false
	}
	return q.tail.Load() == q.head.Load()
}

// Len returns the number of queued elements (approximate under concurrency).
// The two index loads are not a snapshot, so the raw difference can transiently
// fall outside the ring; the result is clamped to [0, Cap()].
func (q *Fifo[T]) Len() int {
	d := int64(q.tail.Load() - q.head.Load())
	if d < 0 {
		return 0
	}
	if d > int64(len(q.buf)) {
		return len(q.buf)
	}
	return int(d)
}

// TryPush appends v if there is room and reports whether it did. Panics if
// the producer side has been closed.
func (q *Fifo[T]) TryPush(v T) bool {
	if q.closedTx {
		panic("cohort: push on closed fifo")
	}
	t := q.tail.Load()
	if t-q.cachedHead >= uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead >= uint64(len(q.buf)) {
			q.pushStalls++
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1) // release: publishes the data store above
	q.noteOccupancy(t + 1 - q.cachedHead)
	ring(&q.pushBell)
	return true
}

// Push appends v, spinning (with yields) while the queue is full. It yields
// instead of parking because the queue's two bells belong to whoever
// registered it (an Engine or a sched session, OnPush/OnPop): a blocking
// call has no doorbell of its own to wait on.
func (q *Fifo[T]) Push(v T) {
	for !q.TryPush(v) {
		runtime.Gosched()
	}
}

// TryPop removes the head element if present.
func (q *Fifo[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h >= q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h >= q.cachedTail {
			q.popStalls++
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	if q.scrub {
		q.buf[h&q.mask] = zero // drop the reference for the GC
	}
	q.head.Store(h + 1)
	ring(&q.popBell)
	return v, true
}

// Pop removes and returns the head element, spinning (with yields) while
// empty. It yields for the reason Push does: the bells are the registrant's.
func (q *Fifo[T]) Pop() T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		runtime.Gosched()
	}
}

// PushAll pushes every element of vs one at a time, publishing the write
// index once per element. It is kept as the per-element reference path (and
// as the baseline in BenchmarkFifoBatchSweep); bulk producers should prefer
// PushSlice, which publishes once per contiguous run.
func (q *Fifo[T]) PushAll(vs []T) {
	for _, v := range vs {
		q.Push(v)
	}
}

// PopN pops exactly n elements one at a time into a fresh slice, publishing
// the read index once per element. Kept as the per-element reference path;
// bulk consumers should prefer PopSlice/TryPopInto.
func (q *Fifo[T]) PopN(n int) []T {
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, q.Pop())
	}
	return out
}

// --- Bulk transfer fast path ------------------------------------------------
//
// The methods below are the software analogue of the paper's batched
// write-index updates (§4.1, Fig. 8/9): a contiguous run of elements moves
// with at most two copies (the ring has at most one wrap seam) and exactly
// ONE atomic index publication, amortizing the release-store — and the cache
// invalidation it causes on the other side — over the whole run.

// TryPushSlice copies as many leading elements of vs as currently fit,
// publishing the write index once for the whole run. It returns the number
// of elements pushed (0 when the queue is full).
func (q *Fifo[T]) TryPushSlice(vs []T) int {
	if q.closedTx {
		panic("cohort: push on closed fifo")
	}
	if len(vs) == 0 {
		return 0
	}
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.cachedHead)
	if free < uint64(len(vs)) {
		q.cachedHead = q.head.Load()
		free = uint64(len(q.buf)) - (t - q.cachedHead)
		if free == 0 {
			q.pushStalls++
			return 0
		}
	}
	n := len(vs)
	if uint64(n) > free {
		n = int(free)
	}
	i := int(t & q.mask)
	c := copy(q.buf[i:], vs[:n])
	copy(q.buf, vs[c:n])        // wrap seam, if any
	q.tail.Store(t + uint64(n)) // release: one publication for the run
	q.noteOccupancy(t + uint64(n) - q.cachedHead)
	ring(&q.pushBell)
	return n
}

// PushSlice pushes all of vs, spinning (with yields) while the queue is full.
// It yields for the reason Push does: the bells are the registrant's.
func (q *Fifo[T]) PushSlice(vs []T) {
	for len(vs) > 0 {
		n := q.TryPushSlice(vs)
		vs = vs[n:]
		if n == 0 {
			runtime.Gosched()
		}
	}
}

// TryPopInto fills dst with up to len(dst) elements, publishing the read
// index once for the whole run. It returns the number of elements popped
// (0 when the queue is empty).
func (q *Fifo[T]) TryPopInto(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	h := q.head.Load()
	avail := q.cachedTail - h
	if avail < uint64(len(dst)) {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - h
		if avail == 0 {
			q.popStalls++
			return 0
		}
	}
	n := len(dst)
	if uint64(n) > avail {
		n = int(avail)
	}
	i := int(h & q.mask)
	c := copy(dst[:n], q.buf[i:])
	copy(dst[c:n], q.buf) // wrap seam, if any
	if q.scrub {
		clear(q.buf[i : i+c]) // drop references for the GC
		clear(q.buf[:n-c])
	}
	q.head.Store(h + uint64(n)) // release: one publication for the run
	ring(&q.popBell)
	return n
}

// PopSlice fills dst completely, spinning (with yields) while the queue is
// empty. It yields for the reason Push does: the bells are the registrant's.
func (q *Fifo[T]) PopSlice(dst []T) {
	for len(dst) > 0 {
		n := q.TryPopInto(dst)
		dst = dst[n:]
		if n == 0 {
			runtime.Gosched()
		}
	}
}

// --- Zero-copy segment views ------------------------------------------------
//
// Segment views expose the ring storage itself, mirroring §4.1.1's
// pointer-organised descriptors: instead of copying through an intermediate
// slice, the producer (consumer) works directly on the free (occupied) region
// and then commits, which performs the single index publication. The views
// are at most two slices because the region wraps the ring at most once.

// WriteSegments returns the currently free space as up to two contiguous ring
// segments (fill a first, then b). The views are only valid until the next
// producer-side call; publish what was written with CommitWrite. Producer
// side only.
func (q *Fifo[T]) WriteSegments() (a, b []T) {
	if q.closedTx {
		panic("cohort: push on closed fifo")
	}
	t := q.tail.Load()
	q.cachedHead = q.head.Load()
	free := uint64(len(q.buf)) - (t - q.cachedHead)
	if free == 0 {
		q.pushStalls++
		return nil, nil
	}
	i := int(t & q.mask)
	first := int(free)
	if first > len(q.buf)-i {
		first = len(q.buf) - i
	}
	return q.buf[i : i+first], q.buf[:int(free)-first]
}

// CommitWrite publishes n elements previously written into the views returned
// by WriteSegments, with a single release-store. n must not exceed the total
// length of those views.
func (q *Fifo[T]) CommitWrite(n int) {
	t := q.tail.Load()
	if n < 0 || uint64(n) > uint64(len(q.buf))-(t-q.cachedHead) {
		panic(fmt.Sprintf("cohort: CommitWrite(%d) exceeds free space", n))
	}
	q.tail.Store(t + uint64(n))
	q.noteOccupancy(t + uint64(n) - q.cachedHead)
	ring(&q.pushBell)
}

// ReadSegments returns the currently occupied region as up to two contiguous
// ring segments (consume a first, then b). The views are only valid until the
// next consumer-side call; release the consumed prefix with CommitRead.
// Consumer side only.
func (q *Fifo[T]) ReadSegments() (a, b []T) {
	h := q.head.Load()
	q.cachedTail = q.tail.Load()
	avail := q.cachedTail - h
	if avail == 0 {
		q.popStalls++
		return nil, nil
	}
	i := int(h & q.mask)
	first := int(avail)
	if first > len(q.buf)-i {
		first = len(q.buf) - i
	}
	return q.buf[i : i+first], q.buf[:int(avail)-first]
}

// CommitRead frees the first n elements of the views returned by
// ReadSegments, with a single release-store. When T holds pointers the
// freed slots are cleared, so the queue never pins consumed values for the
// GC.
func (q *Fifo[T]) CommitRead(n int) {
	h := q.head.Load()
	if n < 0 || uint64(n) > q.cachedTail-h {
		panic(fmt.Sprintf("cohort: CommitRead(%d) exceeds occupied space", n))
	}
	i := int(h & q.mask)
	first := n
	if first > len(q.buf)-i {
		first = len(q.buf) - i
	}
	if q.scrub {
		clear(q.buf[i : i+first])
		clear(q.buf[:n-first])
	}
	q.head.Store(h + uint64(n))
	ring(&q.popBell)
}
