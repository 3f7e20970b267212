package cohort

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// The paper keeps Cohort strictly SPSC and leaves multi-producer queues to
// future work (§4.5: "Generally these queues require atomic memory
// operations..."). This file is that extension for the native runtime: a
// bounded multi-producer queue (Vyukov-style, per-cell sequence numbers)
// whose producers can atomically reserve *contiguous runs of slots*, so a
// multi-word accelerator block pushed by one producer is never interleaved
// with another producer's block.

type mpCell[T any] struct {
	seq atomic.Uint64
	v   T
}

// Mpmc is a bounded lock-free queue safe for any number of producers and
// consumers. Use it as the input side of a shared accelerator (see
// RegisterShared); for strict SPSC the plain Fifo is faster.
type Mpmc[T any] struct {
	buf  []mpCell[T]
	mask uint64
	_    [64]byte
	enq  atomic.Uint64
	_    [64]byte
	deq  atomic.Uint64
}

// NewMpmc allocates a queue with capacity rounded up to a power of two.
func NewMpmc[T any](capacity int) (*Mpmc[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cohort: mpmc capacity must be positive, got %d", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &Mpmc[T]{buf: make([]mpCell[T], n), mask: uint64(n) - 1}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q, nil
}

// Cap returns the queue capacity.
func (q *Mpmc[T]) Cap() int { return len(q.buf) }

// TryPush appends v if there is room. This is a scalar fast path (no slice
// header, no allocation): single-word producers go straight to the cell CAS
// instead of through TryPushBlock.
func (q *Mpmc[T]) TryPush(v T) bool {
	for {
		pos := q.enq.Load()
		c := &q.buf[pos&q.mask]
		seq := c.seq.Load()
		diff := int64(seq) - int64(pos)
		if diff == 0 {
			if q.enq.CompareAndSwap(pos, pos+1) {
				c.v = v
				c.seq.Store(pos + 1) // publish
				return true
			}
		} else if diff < 0 {
			return false // full (or a consumer has not yet freed the lap)
		}
		// diff > 0: another producer advanced enq under us; reload and retry.
	}
}

// Push appends v, spinning while full.
func (q *Mpmc[T]) Push(v T) {
	for !q.TryPush(v) {
		runtime.Gosched()
	}
}

// TryPushBlock atomically reserves len(vs) contiguous slots and fills them,
// or does nothing and returns false if the queue lacks room. Contiguity is
// what keeps one producer's accelerator block intact against competing
// producers.
func (q *Mpmc[T]) TryPushBlock(vs []T) bool {
	n := uint64(len(vs))
	if n == 0 {
		return true
	}
	if n > uint64(len(q.buf)) {
		panic(fmt.Sprintf("cohort: block of %d exceeds queue capacity %d", n, len(q.buf)))
	}
	for {
		pos := q.enq.Load()
		// The whole run [pos, pos+n) must consist of free cells.
		last := &q.buf[(pos+n-1)&q.mask]
		if last.seq.Load() != pos+n-1 {
			// Tail cell not free: full (or another producer mid-fill).
			first := &q.buf[pos&q.mask]
			if first.seq.Load() != pos {
				return false
			}
			// First free but tail busy: treat as full for this attempt.
			return false
		}
		if q.enq.CompareAndSwap(pos, pos+n) {
			for i, v := range vs {
				c := &q.buf[(pos+uint64(i))&q.mask]
				c.v = v
				c.seq.Store(pos + uint64(i) + 1) // publish
			}
			return true
		}
	}
}

// PushBlock spins until the whole block is enqueued contiguously.
func (q *Mpmc[T]) PushBlock(vs []T) {
	for !q.TryPushBlock(vs) {
		runtime.Gosched()
	}
}

// TryPop removes the head element if one is published.
func (q *Mpmc[T]) TryPop() (T, bool) {
	var zero T
	for {
		pos := q.deq.Load()
		c := &q.buf[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1: // published
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := c.v
				c.v = zero
				c.seq.Store(pos + uint64(len(q.buf))) // free for the next lap
				return v, true
			}
		case seq <= pos: // empty or a producer is mid-fill
			return zero, false
		default: // another consumer advanced; retry
		}
	}
}

// Pop removes and returns the head element, spinning while empty.
func (q *Mpmc[T]) Pop() T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		runtime.Gosched()
	}
}

// TryPopBlock atomically claims len(dst) contiguous slots from the head and
// fills dst from them, or does nothing and returns false if fewer elements
// are currently published. The claimed run is released with one consumer
// index CAS — the consume-side mirror of TryPushBlock — so a multi-word
// accelerator block reserved by one producer is recovered intact.
func (q *Mpmc[T]) TryPopBlock(dst []T) bool {
	n := uint64(len(dst))
	if n == 0 {
		return true
	}
	if n > uint64(len(q.buf)) {
		panic(fmt.Sprintf("cohort: block of %d exceeds queue capacity %d", n, len(q.buf)))
	}
	var zero T
	for {
		pos := q.deq.Load()
		// The run's last cell must be published; since producers reserve
		// contiguously from enq, that implies every cell in [pos, pos+n) is
		// at least reserved (possibly still being filled — handled below).
		last := &q.buf[(pos+n-1)&q.mask]
		if last.seq.Load() != pos+n {
			first := &q.buf[pos&q.mask]
			if first.seq.Load() > pos+1 {
				continue // another consumer advanced deq under us; reload
			}
			return false // not enough published elements right now
		}
		if q.deq.CompareAndSwap(pos, pos+n) {
			for i := uint64(0); i < n; i++ {
				c := &q.buf[(pos+i)&q.mask]
				for c.seq.Load() != pos+i+1 {
					runtime.Gosched() // producer mid-fill on an interior cell
				}
				dst[i] = c.v
				c.v = zero
				c.seq.Store(pos + i + uint64(len(q.buf))) // free for the next lap
			}
			return true
		}
	}
}

// PopBlock fills dst from a contiguous run of slots, spinning until enough
// elements are published.
func (q *Mpmc[T]) PopBlock(dst []T) {
	for !q.TryPopBlock(dst) {
		runtime.Gosched()
	}
}

// MpmcStats is a snapshot of a shared queue's counters, derived entirely
// from the cumulative enqueue/dequeue indices — the snapshot itself costs two
// atomic loads and is safe from any goroutine.
type MpmcStats struct {
	Pushes uint64 // elements ever reserved by producers
	Pops   uint64 // elements ever claimed by consumers
}

// Stats snapshots the queue's counters.
func (q *Mpmc[T]) Stats() MpmcStats {
	return MpmcStats{Pushes: q.enq.Load(), Pops: q.deq.Load()}
}

// Len approximates the number of queued elements, clamped to [0, Cap()].
func (q *Mpmc[T]) Len() int {
	d := int64(q.enq.Load() - q.deq.Load())
	if d < 0 {
		return 0
	}
	if d > int64(len(q.buf)) {
		return len(q.buf)
	}
	return int(d)
}

// RegisterShared connects an accelerator between a multi-producer input
// queue and an SPSC output queue: any number of goroutines PushBlock whole
// accelerator blocks, one engine consumes. Output blocks appear in the order
// the input blocks were reserved.
func RegisterShared(acc Accelerator, in *Mpmc[Word], out *Fifo[Word], opts ...RegisterOption) (*Engine, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("cohort: register %s: nil queue", acc.Name())
	}
	bridgeCap := 4 * acc.InWords()
	if bridgeCap < 64 {
		bridgeCap = 64
	}
	bridge, err := NewFifo[Word](bridgeCap)
	if err != nil {
		return nil, err
	}
	eng, err := Register(acc, bridge, out, opts...)
	if err != nil {
		return nil, err
	}
	// A pump moves published words from the shared queue into the engine's
	// private SPSC input (the single consumer the MPSC contract requires).
	// It drains the shared queue a run at a time and forwards each run with
	// a single bridge index publication (the bulk fast path), so the extra
	// hop costs one release-store per batch rather than one per word.
	go func() {
		batch := make([]Word, bridgeCap)
		for {
			n := 0
			for n < len(batch) {
				v, ok := in.TryPop()
				if !ok {
					break
				}
				batch[n] = v
				n++
			}
			if n == 0 {
				select {
				case <-eng.stop:
					return
				default:
					runtime.Gosched()
					continue
				}
			}
			if !eng.pushSliceStoppable(bridge, batch[:n]) {
				return
			}
		}
	}()
	return eng, nil
}

// pushSliceStoppable bulk-pushes ws into q, giving up if the engine is
// unregistered mid-push.
func (e *Engine) pushSliceStoppable(q *Fifo[Word], ws []Word) bool {
	for len(ws) > 0 {
		n := q.TryPushSlice(ws)
		ws = ws[n:]
		if len(ws) > 0 && n == 0 {
			select {
			case <-e.stop:
				return false
			default:
				runtime.Gosched()
			}
		}
	}
	return true
}
