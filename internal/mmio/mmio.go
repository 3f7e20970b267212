// Package mmio models uncached memory-mapped I/O: the configuration path for
// devices (Cohort CSRs, the MAPLE unit) and the data path of the MMIO
// baseline. MMIO operations are the paper's villain (§2.1): they are
// non-speculative round trips, so the issuing core stalls for the full
// network traversal plus device latency, and gains no memory-level
// parallelism.
package mmio

import (
	"fmt"
	"sort"

	"cohort/internal/noc"
	"cohort/internal/sim"
)

// Kind distinguishes reads from writes.
type Kind int

// MMIO operation kinds.
const (
	Read Kind = iota
	Write
)

// Handler services one register access in kernel context. For reads the
// return value travels back to the core; for writes it is ignored.
type Handler func(kind Kind, addr, val uint64) uint64

// AsyncHandler services a register access that may complete later: the
// device calls reply (exactly once, from kernel context) when the access
// retires. This models hardware stalling an MMIO response — e.g. a data
// register read that waits for the accelerator to produce a word, during
// which the issuing core stays stalled (§2.1).
//
// reply belongs to a recycled access record. Calling it a second time, once
// the access has retired, panics; after the record serves a later access, a
// stale reply would answer that access instead, so never keep reply past
// the one call.
type AsyncHandler func(kind Kind, addr, val uint64, reply func(uint64))

type device struct {
	bus        *Bus
	base, size uint64
	tile       int
	latency    sim.Time
	h          AsyncHandler
	// Accesses in service live in free-listed records; the latency event
	// carries a record index, so serving an access allocates nothing.
	accs    []*access
	free    []uint32
	serveFn func(uint32) // d.serve, bound once
}

// access is one register access at a device, from its arrival to its reply.
// A request message carries the access kind in Kind, the requester's op id
// in ID, and the address and write value in Addr and Val; the response
// carries the id and the read value.
type access struct {
	d         *device
	slot      uint32 // index in d.accs
	kind      Kind
	addr, val uint64
	src       int
	id        uint32
	live      bool         // arrived and not yet replied to
	reply     func(uint64) // a.respond, bound once
}

// Bus routes MMIO requests from requesters to the device owning the target
// address range and returns responses.
type Bus struct {
	k       *sim.Kernel
	net     *noc.Network
	devices []*device
	byTile  map[int]bool
	reqs    map[int]*Requester
}

// NewBus builds an MMIO bus over the mesh.
func NewBus(k *sim.Kernel, net *noc.Network) *Bus {
	b := &Bus{k: k, net: net, byTile: make(map[int]bool), reqs: make(map[int]*Requester)}
	return b
}

// AttachDevice claims [base, base+size) for a device whose registers always
// respond immediately (after the device latency).
func (b *Bus) AttachDevice(tile int, base, size uint64, latency sim.Time, h Handler) {
	b.AttachAsyncDevice(tile, base, size, latency,
		func(kind Kind, addr, val uint64, reply func(uint64)) {
			reply(h(kind, addr, val))
		})
}

// AttachAsyncDevice claims [base, base+size) for a device on the given tile.
// latency is charged at the device per access (register file / control
// logic). One device per tile.
func (b *Bus) AttachAsyncDevice(tile int, base, size uint64, latency sim.Time, h AsyncHandler) {
	for _, d := range b.devices {
		if base < d.base+d.size && d.base < base+size {
			panic(fmt.Sprintf("mmio: range %#x+%#x overlaps device at %#x", base, size, d.base))
		}
	}
	if b.byTile[tile] {
		panic(fmt.Sprintf("mmio: tile %d already has a device", tile))
	}
	b.byTile[tile] = true
	d := &device{bus: b, base: base, size: size, tile: tile, latency: latency, h: h}
	d.serveFn = d.serve
	b.devices = append(b.devices, d)
	sort.Slice(b.devices, func(i, j int) bool { return b.devices[i].base < b.devices[j].base })
	b.net.Attach(tile, noc.PortDevice, d.arrive)
}

// arrive takes a request off the network into a free access record and
// serves it after the device latency.
func (d *device) arrive(msg noc.Msg) {
	var i uint32
	if n := len(d.free); n > 0 {
		i = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		i = uint32(len(d.accs))
		a := &access{d: d, slot: i}
		a.reply = a.respond
		d.accs = append(d.accs, a)
	}
	a := d.accs[i]
	a.kind, a.addr, a.val, a.src, a.id, a.live = Kind(msg.Kind), msg.Addr, msg.Val, msg.Src, msg.ID, true
	k := d.bus.k
	k.AtCall(k.Now()+d.latency, d.serveFn, i)
}

func (d *device) serve(i uint32) {
	a := d.accs[i]
	d.h(a.kind, a.addr, a.val, a.reply)
}

// respond sends the access's response and retires its record.
func (a *access) respond(val uint64) {
	if !a.live {
		panic("mmio: reply to a retired access (a device replied twice)")
	}
	a.live = false
	d := a.d
	d.bus.net.Send(d.tile, a.src, noc.PortDevice, 16, &noc.Payload{ID: a.id, Val: val})
	d.free = append(d.free, a.slot)
}

func (b *Bus) find(addr uint64) *device {
	for _, d := range b.devices {
		if addr >= d.base && addr < d.base+d.size {
			return d
		}
	}
	return nil
}

// Requester is a core-side MMIO port. One per requesting tile.
type Requester struct {
	bus   *Bus
	tile  int
	ops   []*pendingOp // by op id
	free  []uint32     // ids of retired ops
	stats Stats
	track string // trace-track name, precomputed at construction
}

// pendingOp is one access a requester has issued. Ops are recycled, each
// keeping its signal: do returns its op to the free list after its own Wait
// returns and it has read val, since nothing else touches the op.
type pendingOp struct {
	done *sim.Signal
	val  uint64
	ok   bool // the response has arrived
}

// Stats counts MMIO operations issued by a requester.
type Stats struct {
	Reads, Writes uint64
}

// Requester returns (creating if needed) the MMIO port for a tile. The tile
// must not also host a device (they share the router port).
func (b *Bus) Requester(tile int) *Requester {
	if r, ok := b.reqs[tile]; ok {
		return r
	}
	if b.byTile[tile] {
		panic(fmt.Sprintf("mmio: tile %d hosts a device; cannot also be a requester", tile))
	}
	r := &Requester{bus: b, tile: tile, track: fmt.Sprintf("mmio.t%d", tile)}
	b.reqs[tile] = r
	b.net.Attach(tile, noc.PortDevice, r.handle)
	return r
}

// handle completes the op a response names.
func (r *Requester) handle(msg noc.Msg) {
	if int(msg.ID) >= len(r.ops) || r.ops[msg.ID].ok {
		panic("mmio: response with no pending op")
	}
	op := r.ops[msg.ID]
	op.val = msg.Val
	op.ok = true
	op.done.Fire()
}

// Stats returns a copy of the requester's counters.
func (r *Requester) Stats() Stats { return r.stats }

func (r *Requester) do(p *sim.Proc, kind Kind, addr, val uint64) uint64 {
	d := r.bus.find(addr)
	if d == nil {
		panic(fmt.Sprintf("mmio: access to unmapped address %#x", addr))
	}
	k := r.bus.k
	traced := k.TracingEnabled()
	var t0 sim.Time
	if traced {
		t0 = k.Now()
	}
	var id uint32
	if n := len(r.free); n > 0 {
		id = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		id = uint32(len(r.ops))
		r.ops = append(r.ops, &pendingOp{done: sim.NewSignal(k)})
	}
	op := r.ops[id]
	op.ok = false
	r.bus.net.Send(r.tile, d.tile, noc.PortDevice, 16,
		&noc.Payload{Kind: uint8(kind), ID: id, Addr: addr, Val: val})
	for !op.ok {
		op.done.Wait(p)
	}
	v := op.val
	r.free = append(r.free, id)
	if traced {
		// One span per round trip: the paper's non-speculative stall (§2.1)
		// is literally the span's width — polls show as back-to-back reads.
		name := "read"
		if kind == Write {
			name = "write"
		}
		k.TraceSpan(r.track, name, t0)
	}
	return v
}

// Read performs an uncached load; the calling process stalls for the full
// round trip.
func (r *Requester) Read(p *sim.Proc, addr uint64) uint64 {
	r.stats.Reads++
	return r.do(p, Read, addr, 0)
}

// Write performs an uncached store; like a real side-effectful MMIO store it
// is completion-acknowledged, so the core stalls here too.
func (r *Requester) Write(p *sim.Proc, addr, val uint64) {
	r.stats.Writes++
	r.do(p, Write, addr, val)
}
