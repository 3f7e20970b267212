package coherence

import (
	"fmt"

	"cohort/internal/mem"
	"cohort/internal/noc"
	"cohort/internal/sim"
)

// lineState is a cache line's MESI state.
type lineState int

const (
	stateI lineState = iota
	stateS
	stateE
	stateM
)

func (s lineState) String() string { return [...]string{"I", "S", "E", "M"}[s] }

type way struct {
	valid   bool
	line    mem.PAddr
	state   lineState
	data    [mem.LineSize]byte
	lastUse uint64
}

// mshr tracks one in-flight transaction for a line: a fetch (GetS/GetM
// awaiting data) or an eviction (PutM awaiting PutAck, holding the dirty
// data so incoming Fetches can still be answered).
//
// MSHRs are recycled, each keeping its signal, so a warm cache allocates
// none. A transaction leaves the in-flight set when its reply arrives
// (complete), and its MSHR returns to the spare list once nothing reads it
// any more: an issuer returns it after its own Wait returns, since
// ReadOnceU64 reads m.data after waking; a PutM's returns at PutAck, right
// after the Fire, since no process issued it. Reuse is safe for bystanders
// parked on done as well: Fire has already scheduled them, and on waking
// they re-check the in-flight set, never the MSHR.
type mshr struct {
	line   mem.PAddr
	isPut  bool
	isOnce bool
	data   [mem.LineSize]byte // PutM write-back buffer / GetOnce result
	done   *sim.Signal
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Upgrades    uint64 // S->M GetM requests
	Writebacks  uint64
	InvsRecv    uint64
	FetchesRecv uint64
	// FetchFromPutBuf counts Fetches answered from an in-flight PutM's
	// write-back buffer — the one genuine protocol race, handled explicitly.
	FetchFromPutBuf uint64
}

// Cache is a private write-back MESI cache attached to one tile. Client
// operations (Read/Write) are blocking process calls; protocol messages are
// handled in kernel context.
type Cache struct {
	sys  *System
	tile int
	name string
	cfg  Config

	sets     [][]way
	useClock uint64
	mshrs    []*mshr // in flight, at most one per line
	spare    []*mshr // retired, for reuse
	// pendingInstalls holds responses whose set had no evictable way; they
	// retry whenever an MSHR completes.
	pendingInstalls []noc.Payload
	invHooks        []func(line mem.PAddr)
	stats           CacheStats
}

func newCache(sys *System, tile int, name string) *Cache {
	c := &Cache{
		sys:  sys,
		tile: tile,
		name: name,
		cfg:  sys.cfg,
		sets: make([][]way, sys.cfg.Sets),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, sys.cfg.Ways)
	}
	sys.net.Attach(tile, noc.PortCache, c.handle)
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// OnInvalidate registers fn to run (kernel context) whenever an external
// invalidation for a line arrives — the primitive Cohort's Reader Coherency
// Manager is built on.
func (c *Cache) OnInvalidate(fn func(line mem.PAddr)) {
	c.invHooks = append(c.invHooks, fn)
}

func (c *Cache) setIndex(line mem.PAddr) int {
	return int((line / mem.LineSize) % uint64(c.cfg.Sets))
}

// inFlight returns line's in-flight MSHR, or nil.
func (c *Cache) inFlight(line mem.PAddr) *mshr {
	for _, m := range c.mshrs {
		if m.line == line {
			return m
		}
	}
	return nil
}

// open starts a transaction for line on a spare MSHR (see mshr).
func (c *Cache) open(line mem.PAddr, isPut, isOnce bool) *mshr {
	var m *mshr
	if n := len(c.spare); n > 0 {
		m = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		m = &mshr{done: sim.NewSignal(c.sys.k)}
	}
	m.line, m.isPut, m.isOnce = line, isPut, isOnce
	c.mshrs = append(c.mshrs, m)
	return m
}

// complete takes m out of the in-flight set and wakes everything parked on
// it. The MSHR itself stays out of the spare list until its owner recycles
// it.
func (c *Cache) complete(m *mshr) {
	for i, x := range c.mshrs {
		if x == m {
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs[last] = nil
			c.mshrs = c.mshrs[:last]
			break
		}
	}
	m.done.Fire()
}

// recycle returns a completed MSHR to the spare list.
func (c *Cache) recycle(m *mshr) { c.spare = append(c.spare, m) }

// toDir sends a request or completion for line to its home bank.
func (c *Cache) toDir(line mem.PAddr, size int, pl *noc.Payload) {
	c.sys.net.Send(c.tile, c.sys.home(line), noc.PortDir, size, pl)
}

// lookup returns the way holding line, or nil.
func (c *Cache) lookup(line mem.PAddr) *way {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// Read copies size bytes at physical address pa into buf, performing
// whatever coherence transactions are needed. Blocking process call.
func (c *Cache) Read(p *sim.Proc, pa mem.PAddr, buf []byte) {
	for len(buf) > 0 {
		line := mem.LineOf(pa)
		off := mem.LineOffset(pa)
		n := mem.LineSize - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		w := c.ensure(p, line, false)
		copy(buf[:n], w.data[off:int(off)+n])
		c.touch(w)
		p.Wait(c.cfg.HitLatency)
		buf = buf[n:]
		pa += uint64(n)
	}
}

// Write stores data at physical address pa. Blocking process call.
func (c *Cache) Write(p *sim.Proc, pa mem.PAddr, data []byte) {
	for len(data) > 0 {
		line := mem.LineOf(pa)
		off := mem.LineOffset(pa)
		n := mem.LineSize - int(off)
		if n > len(data) {
			n = len(data)
		}
		w := c.ensure(p, line, true)
		copy(w.data[off:int(off)+n], data[:n])
		w.state = stateM
		c.touch(w)
		p.Wait(c.cfg.HitLatency)
		data = data[n:]
		pa += uint64(n)
	}
}

// ReadOnceU64 performs a coherent *non-caching* 64-bit load: the current
// value is obtained from the home directory (downgrading any remote owner)
// but the line is not installed locally. This is how hardware page-table
// walkers read PTEs — page tables are updated by software outside the
// caches, so a PTW must never trap a stale copy in its own L1.
func (c *Cache) ReadOnceU64(p *sim.Proc, pa mem.PAddr) uint64 {
	line := mem.LineOf(pa)
	for m := c.inFlight(line); m != nil; m = c.inFlight(line) {
		m.done.Wait(p)
	}
	m := c.open(line, false, true)
	c.toDir(line, ctrlMsgBytes, &noc.Payload{Kind: uint8(reqGetOnce), Addr: line})
	m.done.Wait(p)
	v := le64(m.data[mem.LineOffset(pa) : mem.LineOffset(pa)+8])
	c.recycle(m)
	return v
}

// WriteOnceU64 performs a coherent *non-caching* 64-bit store: any remote
// copies are invalidated, the word lands in the backing store, and no local
// copy is installed. This is how the Cohort WCM publishes queue pointers —
// the invalidation it triggers at the consumer is the queue-coherence
// doorbell, while the writer's cache stays out of the pointer line's
// ownership ping-pong.
func (c *Cache) WriteOnceU64(p *sim.Proc, pa mem.PAddr, v uint64) {
	c.WriteOnceSpan(p, pa, []uint64{v})
}

// WriteOnceSpan writes consecutive 64-bit words as coherent non-caching
// transactions, one per line touched. The Cohort producer endpoint writes
// each accelerator output block this way: one transaction per block, then
// the write-pointer publication (the WCM ordering of §4.2.3).
func (c *Cache) WriteOnceSpan(p *sim.Proc, pa mem.PAddr, words []uint64) {
	for len(words) > 0 {
		line := mem.LineOf(pa)
		n := (mem.LineSize - int(mem.LineOffset(pa))) / 8
		if n > len(words) {
			n = len(words)
		}
		for m := c.inFlight(line); m != nil; m = c.inFlight(line) {
			m.done.Wait(p)
		}
		if w := c.lookup(line); w != nil {
			if w.state == stateM {
				panic(fmt.Sprintf("%s: WriteOnce to a line held Modified (mixed cached/uncached writes)", c.name))
			}
			w.valid = false // drop the clean local copy; the directory treats us as gone
		}
		m := c.open(line, false, true)
		pl := noc.Payload{Kind: uint8(reqPutOnce), Addr: pa, Val: uint64(n)}
		for i, v := range words[:n] {
			putLE64(pl.Line[mem.LineOffset(pa)+uint64(8*i):], v)
		}
		c.toDir(line, ctrlMsgBytes+8*n, &pl)
		m.done.Wait(p)
		c.recycle(m)
		words = words[n:]
		pa += uint64(8 * n)
	}
}

// ReadU64 is a convenience for the 8-byte loads queue code performs.
func (c *Cache) ReadU64(p *sim.Proc, pa mem.PAddr) uint64 {
	var b [8]byte
	c.Read(p, pa, b[:])
	return le64(b[:])
}

// WriteU64 is the store counterpart of ReadU64.
func (c *Cache) WriteU64(p *sim.Proc, pa mem.PAddr, v uint64) {
	var b [8]byte
	putLE64(b[:], v)
	c.Write(p, pa, b[:])
}

func (c *Cache) touch(w *way) {
	c.useClock++
	w.lastUse = c.useClock
}

// ensure blocks until the line is present with sufficient permission and
// returns its way.
func (c *Cache) ensure(p *sim.Proc, line mem.PAddr, forWrite bool) *way {
	firstTry := true
	for {
		if m := c.inFlight(line); m != nil {
			// A transaction for this line is in flight (ours or an
			// eviction); wait for it to settle and re-examine.
			firstTry = false
			m.done.Wait(p)
			continue
		}
		w := c.lookup(line)
		if w != nil {
			usable := !forWrite || w.state == stateM || w.state == stateE
			if usable {
				if w.state == stateE && forWrite {
					// Silent E->M upgrade: MESI's whole point.
					w.state = stateM
				}
				if firstTry {
					c.stats.Hits++
				}
				return w
			}
			// S, want M: upgrade request.
			c.stats.Upgrades++
			firstTry = false
			c.request(p, line, reqGetM)
			continue
		}
		if firstTry {
			c.stats.Misses++
			firstTry = false
		}
		if forWrite {
			c.request(p, line, reqGetM)
		} else {
			c.request(p, line, reqGetS)
		}
	}
}

// request opens an MSHR, sends the request to the home directory, and
// parks until the transaction completes.
func (c *Cache) request(p *sim.Proc, line mem.PAddr, kind reqKind) {
	m := c.open(line, false, false)
	c.toDir(line, ctrlMsgBytes, &noc.Payload{Kind: uint8(kind), Addr: line})
	m.done.Wait(p)
	c.recycle(m)
}

// handle processes directory responses in kernel context.
func (c *Cache) handle(msg noc.Msg) {
	line := msg.Addr
	switch kind := respKind(msg.Kind); kind {
	case respDataS, respDataE, respDataM:
		c.install(&msg.Payload)
	case respDataOnce:
		m := c.inFlight(line)
		if m == nil || !m.isOnce {
			panic(fmt.Sprintf("%s: DataOnce for line %#x with no GetOnce outstanding", c.name, line))
		}
		m.data = msg.Line
		c.complete(m)
		c.retryInstalls()
	case respWriteAck:
		m := c.inFlight(line)
		if m == nil || !m.isOnce {
			panic(fmt.Sprintf("%s: WriteAck for line %#x with no PutOnce outstanding", c.name, line))
		}
		c.complete(m)
		c.retryInstalls()
	case respInv:
		c.stats.InvsRecv++
		c.sys.k.TraceInstant(c.name, "inv")
		if w := c.lookup(line); w != nil {
			w.valid = false
		}
		for _, h := range c.invHooks {
			h(line)
		}
		c.sys.net.Send(c.tile, msg.Src, noc.PortDir, ctrlMsgBytes,
			&noc.Payload{Kind: uint8(ackInv), Addr: line})
	case respFetch:
		c.stats.FetchesRecv++
		c.sys.k.TraceInstant(c.name, "fetch")
		c.handleFetch(msg.Src, line, msg.Flags&flagDowngrade != 0)
	case respPutAck:
		m := c.inFlight(line)
		if m == nil || !m.isPut {
			panic(fmt.Sprintf("%s: PutAck for line %#x with no PutM outstanding", c.name, line))
		}
		c.complete(m)
		c.recycle(m) // no process issued the PutM: nothing reads m now
		c.retryInstalls()
	default:
		panic(fmt.Sprintf("%s: unexpected response %v", c.name, kind))
	}
}

func (c *Cache) handleFetch(dirTile int, line mem.PAddr, downgrade bool) {
	reply := noc.Payload{Kind: uint8(ackFetch), Addr: line}
	if w := c.lookup(line); w != nil && (w.state == stateM || w.state == stateE) {
		reply.Line = w.data
		reply.Flags = flagData
		if downgrade {
			w.state = stateS
		} else {
			w.valid = false
			for _, h := range c.invHooks {
				h(line)
			}
		}
	} else if m := c.inFlight(line); m != nil && m.isPut {
		// PutM crossed this Fetch in flight; answer from the write-back
		// buffer and let the PutAck finish the eviction.
		c.stats.FetchFromPutBuf++
		reply.Line = m.data
		reply.Flags = flagData
	}
	// Otherwise: the line was silently evicted clean; the directory's
	// backing copy is current, tell it so with a dataless response.
	size := ctrlMsgBytes
	if reply.Flags&flagData != 0 {
		size = dataMsgBytes
	}
	c.sys.net.Send(c.tile, dirTile, noc.PortDir, size, &reply)
}

// install places arriving data into the cache, evicting if necessary, then
// completes the line's MSHR.
func (c *Cache) install(r *noc.Payload) {
	st := stateS
	switch respKind(r.Kind) {
	case respDataE:
		st = stateE
	case respDataM:
		st = stateM
	}
	// An upgrade keeps its S way; reuse it.
	w := c.lookup(r.Addr)
	if w == nil {
		w = c.victim(r.Addr)
		if w == nil {
			// Every way in the set is pinned by an in-flight upgrade;
			// retry when some transaction completes.
			c.pendingInstalls = append(c.pendingInstalls, *r)
			return
		}
		c.evict(w)
	}
	w.valid = true
	w.line = r.Addr
	w.state = st
	w.data = r.Line
	c.touch(w)
	m := c.inFlight(r.Addr)
	if m == nil {
		panic(fmt.Sprintf("%s: data for line %#x with no MSHR", c.name, r.Addr))
	}
	c.complete(m)
	c.retryInstalls()
}

// victim picks a replacement way in line's set: an invalid way if any,
// otherwise the least recently used way not pinned by an in-flight upgrade.
func (c *Cache) victim(line mem.PAddr) *way {
	set := c.sets[c.setIndex(line)]
	var lru *way
	for i := range set {
		w := &set[i]
		if !w.valid {
			return w
		}
		if c.inFlight(w.line) != nil {
			continue // pinned by an in-flight upgrade
		}
		if lru == nil || w.lastUse < lru.lastUse {
			lru = w
		}
	}
	return lru
}

// evict removes w from the cache, writing back via PutM if it is owned.
func (c *Cache) evict(w *way) {
	if !w.valid {
		return
	}
	if w.state == stateM {
		c.stats.Writebacks++
		m := c.open(w.line, true, false)
		m.data = w.data
		c.toDir(w.line, dataMsgBytes, &noc.Payload{Kind: uint8(reqPutM), Addr: w.line, Line: w.data})
	}
	// S and clean-E lines drop silently.
	w.valid = false
}

func (c *Cache) retryInstalls() {
	if len(c.pendingInstalls) == 0 {
		return
	}
	pend := c.pendingInstalls
	c.pendingInstalls = nil
	for i := range pend {
		c.install(&pend[i])
	}
}

// flushForTest writes every owned line back to backing memory directly,
// bypassing timing. Only for end-of-test verification.
func (c *Cache) flushForTest() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			w := &c.sets[si][wi]
			if w.valid && w.state == stateM {
				c.sys.mem.WriteLine(w.line, w.data)
			}
		}
	}
	for _, m := range c.mshrs {
		if m.isPut {
			c.sys.mem.WriteLine(m.line, m.data)
		}
	}
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
