// Package shmring is the same-host data plane of a served session: one
// shared-memory region per kept connection, holding two single-producer
// single-consumer word rings, one each way. Producer and consumer share the
// queues and exchange nothing but index publications (§3.2, §4.1); a side
// with nothing to do parks, and its peer wakes it with a payload-free
// Doorbell frame on the connection the sleeper already reads — the wire's
// stand-in for the cache-line invalidation of §4.2.
//
// Each ring has shmq's layout (shmq.Layout with 8-byte elements): the write
// index on one cache line, the read index on the next, then the element
// array. Each index line also carries its owner's armed word — the
// producer's "waiting for room", the consumer's "waiting for words" — so a
// publisher learns whether its peer sleeps from the line it loads anyway:
//
//	ring 0 (client to shard) | ring 1 (shard to client)
//	ring:  +0 write index, +8 producer armed | +64 read index, +72 consumer armed | +128 words
//
// The waiting side follows cohort.Bell's protocol across the process
// boundary: Arm, a last look at the peer's index, then sleep. The publisher
// publishes its index, then takes the peer's armed word with an atomic swap
// and sends one Doorbell if it was set. Each side writes its own word and
// then loads the other's, which only a full barrier keeps in order, so the
// Arm and the index publication are atomic swaps: then either the sleeper's
// last look sees the publication or the publisher sees the armed word, no
// wakeup is lost, and a side that never sleeps costs its peer no syscall.
// (A Go atomic store is a swap on amd64 anyway, but under the race detector
// it is only a release, and the pair reorders.)
//
// The peer is untrusted. Each end keeps its own cursor and the ring's
// geometry in private memory and never reads either back from the region;
// every index it loads is checked to move forward and to stay within one
// ring of its own cursor, and a violation is an error, never an access
// outside the mapping.
package shmring

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Ring geometry. The shard picks the words per ring and names them in its
// OpenOK; an attaching client accepts any power of two in this range.
const (
	// RingWords is what the shard offers: 128 KiB a direction, four 32 KiB
	// sends. The rings' touched pages land in the shard's resident set, so
	// they are no larger than a streaming session needs; at half this size
	// a ring of two sends filled every other send and each fill cost a
	// Doorbell.
	RingWords = 1 << 14
	minWords  = 1 << 6
	maxWords  = 1 << 16
)

// lineBytes is the cache line the index words are kept apart by.
const lineBytes = 64

// ringBytes is one ring's footprint: shmq.Footprint(8, words).
func ringBytes(words int) int { return 2*lineBytes + 8*words }

// regionBytes is a region's size: two rings, back to back.
func regionBytes(words int) int { return 2 * ringBytes(words) }

// validWords reports whether words is a ring size this package maps.
func validWords(words int) bool {
	return words >= minWords && words <= maxWords && words&(words-1) == 0
}

// errCorrupt is a ring index the peer published that no honest peer could:
// one that moved backwards or further than a ring from this end's cursor.
var errCorrupt = errors.New("shmring: peer published an impossible index")

// Region is one mapped region. Close unmaps it once no caller is between
// Enter and Exit, so a goroutine closing a connection cannot pull the
// mapping from under another one that is copying through it.
type Region struct {
	mem   []byte
	words int
	name  string // the file's name while it is still linked
	// refs counts callers inside Enter/Exit in steps of 2; bit 0 is set once
	// Close has run.
	refs atomic.Int64
}

// Words returns the words each ring holds.
func (r *Region) Words() int { return r.words }

// Name returns the region's file name under the shared-memory directory,
// until Unlink.
func (r *Region) Name() string { return r.name }

// Enter pins the mapping for a caller about to touch the rings. It reports
// false once Close has run; every true Enter is paired with one Exit.
func (r *Region) Enter() bool {
	for {
		v := r.refs.Load()
		if v&1 != 0 {
			return false
		}
		if r.refs.CompareAndSwap(v, v+2) {
			return true
		}
	}
}

// Exit ends an Enter, unmapping the region if it was the last one after
// Close.
func (r *Region) Exit() {
	if r.refs.Add(-2) == 1 {
		unmap(r.mem)
	}
}

// Close unlinks the region's file if it is still linked and unmaps the
// region now, or at the last Exit if a caller is inside it. Idempotent.
func (r *Region) Close() {
	r.Unlink()
	for {
		v := r.refs.Load()
		if v&1 != 0 {
			return
		}
		if r.refs.CompareAndSwap(v, v|1) {
			if v == 0 {
				unmap(r.mem)
			}
			return
		}
	}
}

// word returns the index word at byte offset off.
func (r *Region) word(off int) *uint64 { return (*uint64)(unsafe.Pointer(&r.mem[off])) }

// ringAt returns ring i's words, cursors and armed words.
func (r *Region) ringAt(i int) (data []uint64, wIdx, wArmed, rIdx, rArmed *uint64) {
	if i != 0 && i != 1 {
		panic(fmt.Sprintf("shmring: ring %d, a region has rings 0 and 1", i))
	}
	base := i * ringBytes(r.words)
	data = unsafe.Slice((*uint64)(unsafe.Pointer(&r.mem[base+2*lineBytes])), r.words)
	return data, r.word(base), r.word(base + 8), r.word(base + lineBytes), r.word(base + lineBytes + 8)
}

// Producer returns the producing end of ring i. Each end of a region
// produces into one ring and consumes the other; the cursor starts at zero
// and lives as long as the region, across the sessions of a kept
// connection.
func (r *Region) Producer(i int) *Producer {
	p := &Producer{words: uint64(r.words), mask: uint64(r.words) - 1}
	p.data, p.wIdx, p.armed, p.rIdx, p.peer = r.ringAt(i)
	return p
}

// Consumer returns the consuming end of ring i.
func (r *Region) Consumer(i int) *Consumer {
	c := &Consumer{words: uint64(r.words), mask: uint64(r.words) - 1}
	c.data, c.wIdx, c.peer, c.rIdx, c.armed = r.ringAt(i)
	return c
}

// Producer is the writing end of one ring. Not safe for concurrent use.
type Producer struct {
	w     uint64 // next index to write: private, the only copy that counts
	seen  uint64 // the read index last loaded and checked
	words uint64
	mask  uint64
	data  []uint64
	wIdx  *uint64 // the published write index
	armed *uint64 // this end's "waiting for room"
	rIdx  *uint64 // the consumer's read index
	peer  *uint64 // the consumer's "waiting for words"
}

// free loads and checks the consumer's read index and returns the free
// slots.
func (p *Producer) free() (uint64, error) {
	r := atomic.LoadUint64(p.rIdx)
	if r < p.seen || p.w-r > p.words {
		return 0, fmt.Errorf("%w: read index %d against write index %d (last read %d)", errCorrupt, r, p.w, p.seen)
	}
	p.seen = r
	return p.words - (p.w - r), nil
}

// Push copies the leading words of a, then of b, that fit into the ring and
// publishes them with one write-index store. It returns how many it wrote
// and whether the consumer was parked waiting for words, in which case the
// caller sends it a Doorbell. An error means the consumer corrupted the
// ring; nothing was written.
func (p *Producer) Push(a, b []uint64) (n int, bell bool, err error) {
	free, err := p.free()
	if err != nil || free == 0 {
		return 0, false, err
	}
	n = len(a) + len(b)
	if uint64(n) > free {
		n = int(free)
	}
	na := min(len(a), n)
	p.put(p.w, a[:na])
	p.put(p.w+uint64(na), b[:n-na])
	p.w += uint64(n)
	atomic.SwapUint64(p.wIdx, p.w) // a full barrier before take: see the package doc
	return n, take(p.peer), nil
}

// put copies src into the ring from index at, across the wrap seam.
func (p *Producer) put(at uint64, src []uint64) {
	i := at & p.mask
	c := copy(p.data[i:], src)
	copy(p.data, src[c:])
}

// Arm announces that this end is about to sleep until the consumer frees
// room. Call Room once more after it, and Disarm once awake.
func (p *Producer) Arm() { atomic.SwapUint64(p.armed, 1) }

// Disarm withdraws Arm.
func (p *Producer) Disarm() { atomic.StoreUint64(p.armed, 0) }

// Room is the last look before sleeping: whether a Push would do anything
// — write words, or report a corrupt ring.
func (p *Producer) Room() bool { return p.w-atomic.LoadUint64(p.rIdx) != p.words }

// Consumer is the reading end of one ring. Not safe for concurrent use.
type Consumer struct {
	r     uint64 // next index to read: private
	seen  uint64 // the write index last loaded and checked
	words uint64
	mask  uint64
	data  []uint64
	rIdx  *uint64 // the published read index
	armed *uint64 // this end's "waiting for words"
	wIdx  *uint64 // the producer's write index
	peer  *uint64 // the producer's "waiting for room"
}

// Segments loads and checks the producer's write index and returns the
// words waiting as up to two views of the ring (read a, then b). The views
// stay valid until Commit; the producer can still scribble over them, which
// changes the words read and nothing else.
func (c *Consumer) Segments() (a, b []uint64, err error) {
	w := atomic.LoadUint64(c.wIdx)
	if w < c.seen || w-c.r > c.words {
		return nil, nil, fmt.Errorf("%w: write index %d against read index %d (last write %d)", errCorrupt, w, c.r, c.seen)
	}
	c.seen = w
	n := w - c.r
	i := c.r & c.mask
	first := min(n, c.words-i)
	return c.data[i : i+first], c.data[:n-first], nil
}

// Commit releases the first n words Segments returned with one read-index
// store, and reports whether the producer was parked waiting for room, in
// which case the caller sends it a Doorbell.
func (c *Consumer) Commit(n int) (bell bool) {
	if n < 0 || uint64(n) > c.seen-c.r {
		panic(fmt.Sprintf("shmring: Commit(%d) past the %d words Segments returned", n, c.seen-c.r))
	}
	c.r += uint64(n)
	atomic.SwapUint64(c.rIdx, c.r) // a full barrier before take: see the package doc
	return take(c.peer)
}

// Arm announces that this end is about to sleep until the producer
// publishes. Call Pending once more after it, and Disarm once awake.
func (c *Consumer) Arm() { atomic.SwapUint64(c.armed, 1) }

// Disarm withdraws Arm.
func (c *Consumer) Disarm() { atomic.StoreUint64(c.armed, 0) }

// Pending is the last look before sleeping: whether Segments would do
// anything — return words, or report a corrupt ring.
func (c *Consumer) Pending() bool { return atomic.LoadUint64(c.wIdx) != c.r }

// take clears the peer's armed word and reports whether it was set: the
// publisher owes the peer one Doorbell per Arm it takes.
func take(armed *uint64) bool {
	return atomic.LoadUint64(armed) != 0 && atomic.SwapUint64(armed, 0) != 0
}
