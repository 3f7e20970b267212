package coherence

import (
	"fmt"

	"cohort/internal/mem"
	"cohort/internal/noc"
	"cohort/internal/sim"
)

// dirState is a directory line's stable state.
type dirState int

const (
	dirU dirState = iota // uncached anywhere
	dirS                 // shared by >= 1 caches
	dirX                 // exclusively owned (E or M at the owner)
)

type dirLine struct {
	addr     mem.PAddr
	idx      uint32 // index in the bank's byIdx, the argument of its process events
	state    dirState
	sharers  uint64 // bitset of sharer tiles (deterministic iteration order)
	owner    int
	resident bool // line has been filled into the L2 (first touch pays DRAM)

	busy     bool
	queue    []request // waiting, oldest first; the backing array is kept
	cur      request   // the transaction in service, valid while busy
	pending  *request  // &cur while it waits for FetchResp/InvAcks, else nil
	waitAcks int
	fetching int // tile a Fetch is outstanding to, -1 otherwise

	// Trace bookkeeping for the in-service transaction (valid while busy).
	trStart sim.Time
}

// DirStats counts directory events.
type DirStats struct {
	GetS, GetM, PutM uint64
	GetOnce          uint64
	PutOnce          uint64
	InvSent          uint64
	FetchSent        uint64
}

// bank is one home directory slice, colocated with a tile (like an OpenPiton
// L2 slice). Lines are interleaved across banks by line address.
type bank struct {
	sys   *System
	tile  int
	lines map[mem.PAddr]*dirLine
	byIdx []*dirLine // lines by dirLine.idx
	track string     // trace-track name, precomputed so tracing never formats
	occ   int        // requests at this bank: queued + in service
	// processFn is b.process, bound once: start schedules it with a line
	// index, so serving a request allocates no closure.
	processFn func(uint32)
}

func newBank(sys *System, tile int) *bank {
	b := &bank{sys: sys, tile: tile, lines: make(map[mem.PAddr]*dirLine),
		track: fmt.Sprintf("dir%d", tile)}
	b.processFn = b.process
	sys.net.Attach(tile, noc.PortDir, b.handle)
	return b
}

func (b *bank) line(addr mem.PAddr) *dirLine {
	l := b.lines[addr]
	if l == nil {
		l = &dirLine{addr: addr, idx: uint32(len(b.byIdx)), owner: -1, fetching: -1}
		b.lines[addr] = l
		b.byIdx = append(b.byIdx, l)
	}
	return l
}

func (b *bank) handle(msg noc.Msg) {
	kind := reqKind(msg.Kind)
	switch kind {
	case ackInv, ackFetch:
		b.onAck(&msg)
		return
	case reqGetS, reqGetM, reqPutM, reqGetOnce, reqPutOnce:
	default:
		panic(fmt.Sprintf("dir[%d]: unexpected message kind %d", b.tile, msg.Kind))
	}
	r := request{kind: kind, line: mem.LineOf(msg.Addr), src: msg.Src, data: msg.Line}
	if kind == reqPutOnce {
		r.off, r.n = mem.LineOffset(msg.Addr), int(msg.Val)
	}
	l := b.line(r.line)
	b.occ++
	b.sys.k.TraceCounter(b.track, "occupancy", int64(b.occ))
	if l.busy {
		l.queue = append(l.queue, r)
		return
	}
	l.cur = r
	b.start(l)
}

// next completes the in-service transaction and starts the line's next
// queued request, if any. The blocking-directory invariant: busy stays true
// from start to completion, so a line serves one transaction at a time.
func (b *bank) next(l *dirLine) {
	b.occ--
	if b.sys.k.TracingEnabled() {
		// One span per coherence transaction, start to completion: the
		// invalidation round trips the paper's latency model counts show
		// up as long GetM/PutOnce spans on the home bank's track.
		b.sys.k.TraceSpan(b.track, l.cur.kind.String(), l.trStart)
		b.sys.k.TraceCounter(b.track, "occupancy", int64(b.occ))
	}
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	l.cur = l.queue[0]
	l.queue = l.queue[:copy(l.queue, l.queue[1:])]
	b.start(l)
}

// start puts l.cur in service: process runs it once the bank's lookup
// latency has passed.
func (b *bank) start(l *dirLine) {
	l.busy = true
	l.trStart = b.sys.k.Now()
	lat := b.sys.cfg.DirLatency
	if !l.resident {
		lat += b.sys.cfg.MemLatency
		l.resident = true
	}
	b.sys.k.AtCall(b.sys.k.Now()+lat, b.processFn, l.idx)
}

// process serves the in-service request of line byIdx[i] once the bank's
// lookup latency has passed.
func (b *bank) process(i uint32) {
	l := b.byIdx[i]
	r := &l.cur
	switch r.kind {
	case reqGetS:
		b.sys.stats.GetS++
		b.getS(l, r)
	case reqGetM:
		b.sys.stats.GetM++
		b.getM(l, r)
	case reqPutM:
		b.sys.stats.PutM++
		b.putM(l, r)
	case reqGetOnce:
		b.sys.stats.GetOnce++
		b.getOnce(l, r)
	case reqPutOnce:
		b.sys.stats.PutOnce++
		b.putOnce(l, r)
	}
}

// toCache sends a directory-to-cache message of the given kind for line l.
func (b *bank) toCache(l *dirLine, tile int, kind respKind, flags uint8) {
	b.sys.net.Send(b.tile, tile, noc.PortCache, ctrlMsgBytes,
		&noc.Payload{Kind: uint8(kind), Flags: flags, Addr: l.addr})
}

// fetch asks the owner for the line; its FetchResp completes r, which waits
// in l.pending until then.
func (b *bank) fetch(l *dirLine, r *request, downgrade bool) {
	l.pending = r
	l.fetching = l.owner
	b.sys.stats.FetchSent++
	var flags uint8
	if downgrade {
		flags = flagDowngrade
	}
	b.toCache(l, l.owner, respFetch, flags)
}

// invalidate sends an Inv to every sharer but r's requester and reports how
// many it sent. With any sent, r waits in l.pending for their InvAcks.
func (b *bank) invalidate(l *dirLine, r *request) int {
	invs := 0
	for t := 0; t < 64; t++ {
		if l.sharers&(1<<t) == 0 || t == r.src {
			continue
		}
		invs++
		b.sys.stats.InvSent++
		b.toCache(l, t, respInv, 0)
	}
	if invs > 0 {
		l.pending = r
		l.waitAcks = invs
	}
	return invs
}

// putOnce services a coherent non-caching word write: current holders are
// invalidated (or the owner fetched), the word lands in the backing store,
// and the writer gets an ack. This is how the Cohort WCM publishes queue
// pointers — the resulting invalidation at the consumer *is* the queue-
// coherence doorbell.
func (b *bank) putOnce(l *dirLine, r *request) {
	switch l.state {
	case dirX:
		if l.owner == r.src {
			// The writer held a clean E copy from an earlier cached read and
			// dropped it when issuing the uncached write.
			b.completePutOnce(l, r)
			b.next(l)
			return
		}
		b.fetch(l, r, false)
	case dirS:
		if b.invalidate(l, r) == 0 {
			b.completePutOnce(l, r)
			b.next(l)
		}
	default:
		b.completePutOnce(l, r)
		b.next(l)
	}
}

func (b *bank) completePutOnce(l *dirLine, r *request) {
	b.sys.mem.Write(l.addr+r.off, r.data[r.off:r.off+uint64(8*r.n)])
	l.state = dirU
	l.owner = -1
	l.sharers = 0
	b.toCache(l, r.src, respWriteAck, 0)
}

// getOnce services a coherent non-caching read: the requester gets current
// data but is not recorded as a sharer. An exclusive owner is downgraded
// (its dirty data must reach the backing store first).
func (b *bank) getOnce(l *dirLine, r *request) {
	if l.state == dirX && l.owner != r.src {
		b.fetch(l, r, true)
		return
	}
	b.sendData(l, r.src, respDataOnce)
	b.next(l)
}

func (b *bank) getS(l *dirLine, r *request) {
	switch l.state {
	case dirX:
		if l.owner == r.src {
			// Owner silently dropped a clean-E line and is re-fetching; the
			// backing copy is current (a dirty owner would have sent PutM).
			b.sendData(l, r.src, respDataE)
			b.next(l)
			return
		}
		b.fetch(l, r, true)
	case dirS:
		l.sharers |= 1 << r.src
		b.sendData(l, r.src, respDataS)
		b.next(l)
	default: // dirU
		if b.sys.cfg.ExclusiveGrant {
			l.state = dirX
			l.owner = r.src
			b.sendData(l, r.src, respDataE)
		} else {
			l.state = dirS
			l.sharers |= 1 << r.src
			b.sendData(l, r.src, respDataS)
		}
		b.next(l)
	}
}

func (b *bank) getM(l *dirLine, r *request) {
	switch l.state {
	case dirX:
		if l.owner == r.src {
			b.sendData(l, r.src, respDataM)
			b.next(l)
			return
		}
		b.fetch(l, r, false)
	case dirS:
		if b.invalidate(l, r) == 0 {
			b.grantM(l, r.src)
			b.next(l)
		}
	default: // dirU
		b.grantM(l, r.src)
		b.next(l)
	}
}

func (b *bank) putM(l *dirLine, r *request) {
	if l.state == dirX && l.owner == r.src {
		b.sys.mem.WriteLine(l.addr, r.data)
		l.state = dirU
		l.owner = -1
	}
	// Otherwise the PutM crossed a Fetch that already collected the data
	// (the FetchResp carried the same bytes); just acknowledge so the cache
	// can retire its write-back buffer.
	b.toCache(l, r.src, respPutAck, 0)
	b.next(l)
}

func (b *bank) onAck(a *noc.Msg) {
	l := b.lines[a.Addr]
	if l == nil || l.pending == nil {
		panic(fmt.Sprintf("dir[%d]: ack for line %#x with no pending transaction", b.tile, a.Addr))
	}
	r := l.pending
	if reqKind(a.Kind) == ackFetch {
		if a.Src != l.fetching {
			panic(fmt.Sprintf("dir[%d]: FetchResp from %d, expected %d", b.tile, a.Src, l.fetching))
		}
		hasData := a.Flags&flagData != 0
		if hasData {
			b.sys.mem.WriteLine(l.addr, a.Line)
		}
		l.fetching = -1
		l.pending = nil
		switch r.kind {
		case reqPutOnce:
			b.completePutOnce(l, r)
		case reqGetS, reqGetOnce:
			l.state = dirS
			oldOwner := l.owner
			l.owner = -1
			l.sharers = 0
			if hasData {
				// Downgraded owner keeps a Shared copy.
				l.sharers |= 1 << oldOwner
			}
			if r.kind == reqGetS {
				l.sharers |= 1 << r.src
				b.sendData(l, r.src, respDataS)
			} else {
				if l.sharers == 0 {
					l.state = dirU
				}
				b.sendData(l, r.src, respDataOnce)
			}
		default:
			b.grantM(l, r.src)
		}
		b.next(l)
		return
	}
	// InvAck
	l.waitAcks--
	if l.waitAcks > 0 {
		return
	}
	l.pending = nil
	if r.kind == reqPutOnce {
		b.completePutOnce(l, r)
	} else {
		b.grantM(l, r.src)
	}
	b.next(l)
}

// grantM hands exclusive ownership to tile with the backing copy's data.
func (b *bank) grantM(l *dirLine, tile int) {
	l.state = dirX
	l.owner = tile
	l.sharers = 0
	b.sendData(l, tile, respDataM)
}

// sendData sends the backing copy of line l to tile.
func (b *bank) sendData(l *dirLine, tile int, kind respKind) {
	pl := noc.Payload{Kind: uint8(kind), Addr: l.addr}
	b.sys.mem.Read(l.addr, pl.Line[:])
	b.sys.net.Send(b.tile, tile, noc.PortCache, dataMsgBytes, &pl)
}
