// Package noc models the on-chip interconnect: a 2-D mesh of routers in the
// style of OpenPiton's P-Mesh, carrying coherence and MMIO traffic between
// tiles. Messages are routed XY hop by hop; each link serializes flits, so
// contended links introduce queuing delay, and delivery order per
// (source, destination) pair is FIFO — a property the coherence protocol
// relies on.
package noc

import (
	"fmt"

	"cohort/internal/sim"
)

// Port identifies the on-tile unit a message targets. A tile can host
// several units (an L1 cache, a directory bank, an MMIO device, an interrupt
// line), each attached to its own port of the tile's router.
type Port int

// Standard ports.
const (
	PortCache Port = iota
	PortDir
	PortDevice
	PortIRQ
	numPorts
)

// LineBytes is the size of the data a message can carry: one cache line.
const LineBytes = 64

// Payload is a message's contents: a small header, whose fields the protocol
// of the destination port interprets, and one line of data. It is a
// fixed-size value, so it travels inline in the message's in-flight record
// and sending a message does not allocate. The source of a message is
// Msg.Src.
type Payload struct {
	Kind  uint8  // message kind, numbered by the destination port's protocol
	Flags uint8  // kind-specific flags
	ID    uint32 // transaction id, for protocols that match replies to requests
	Addr  uint64 // line or register address
	Val   uint64 // register value, word count or other scalar
	Line  [LineBytes]byte
}

// Msg is one network message. Size sets its timing only: a header-only
// message still has a Line, which the receiver ignores.
type Msg struct {
	Src, Dst int  // tile IDs
	Port     Port // destination unit within the tile
	Size     int  // bytes, controls flit count / serialization latency
	Payload
}

// Handler receives messages delivered to a tile. It runs in kernel context
// and must not block; hand off to a sim.Queue for process-style consumers.
type Handler func(Msg)

// Config sets mesh geometry and timing.
type Config struct {
	Width, Height int
	RouterDelay   sim.Time // per-hop route computation / crossbar traversal
	LinkDelay     sim.Time // per-hop wire latency
	FlitBytes     int      // bytes moved per cycle per link
	LocalDelay    sim.Time // src==dst ejection cost
}

// DefaultConfig returns timing in line with a small FPGA mesh: 2-cycle
// routers, 1-cycle links, 16-byte flits.
func DefaultConfig(w, h int) Config {
	return Config{Width: w, Height: h, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16, LocalDelay: 1}
}

// Stats aggregates network counters.
type Stats struct {
	Msgs  uint64
	Flits uint64
	Hops  uint64
}

type link struct {
	nextFree sim.Time
	// track is the link's trace-track name, built on first traced hop so
	// untraced simulations never format it.
	track string
}

// flight is an in-flight message: the message and the tile it is heading to
// on its current hop.
type flight struct {
	msg  Msg
	next int
}

// Network is the mesh instance.
type Network struct {
	k        *sim.Kernel
	cfg      Config
	handlers [][numPorts]Handler
	// links[tile][dir] is the outgoing link from tile in direction dir.
	links [][4]link
	stats Stats

	// In-flight messages live in a free-listed slice and hop events carry
	// their index, so a hop schedules no closure and a warm network does
	// not allocate.
	flights []flight
	free    []uint32
	// arriveFn and deliverFn are n.arrive and n.deliver, bound once.
	arriveFn, deliverFn func(uint32)
}

// Directions for links.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New builds the mesh. Handlers start nil; Attach them before traffic flows.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.FlitBytes <= 0 {
		cfg.FlitBytes = 16
	}
	n := cfg.Width * cfg.Height
	net := &Network{
		k:        k,
		cfg:      cfg,
		handlers: make([][numPorts]Handler, n),
		links:    make([][4]link, n),
	}
	net.arriveFn, net.deliverFn = net.arrive, net.deliver
	return net
}

// Tiles returns the number of tiles.
func (n *Network) Tiles() int { return n.cfg.Width * n.cfg.Height }

// Attach registers the message handler for a tile's port.
func (n *Network) Attach(tile int, port Port, h Handler) {
	n.handlers[tile][port] = h
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

func (n *Network) coord(tile int) (x, y int) { return tile % n.cfg.Width, tile / n.cfg.Width }

func (n *Network) tileAt(x, y int) int { return y*n.cfg.Width + x }

func (n *Network) flits(size int) uint64 {
	f := (size + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return uint64(f)
}

// Send injects a message at src destined for dst's port. It may be called
// from kernel context or a process; delivery happens via the port handler
// after the modelled network latency.
func (n *Network) Send(src, dst int, port Port, size int, pl *Payload) {
	if src < 0 || src >= n.Tiles() || dst < 0 || dst >= n.Tiles() {
		panic(fmt.Sprintf("noc: bad route %d -> %d", src, dst))
	}
	var id uint32
	if m := len(n.free); m > 0 {
		id = n.free[m-1]
		n.free = n.free[:m-1]
	} else {
		id = uint32(len(n.flights))
		n.flights = append(n.flights, flight{})
	}
	n.flights[id].msg = Msg{Src: src, Dst: dst, Port: port, Size: size, Payload: *pl}
	n.stats.Msgs++
	n.stats.Flits += n.flits(size)
	if src == dst {
		n.k.AtCall(n.k.Now()+n.cfg.LocalDelay, n.deliverFn, id)
		return
	}
	n.hop(id, src, n.k.Now())
}

// hop advances in-flight message id from tile `at` toward its destination,
// modelling router delay, link serialization and wire latency for one hop.
func (n *Network) hop(id uint32, at int, ready sim.Time) {
	f := &n.flights[id]
	x, y := n.coord(at)
	dx, dy := n.coord(f.msg.Dst)
	var dir int
	switch {
	case x < dx:
		dir, f.next = dirEast, n.tileAt(x+1, y)
	case x > dx:
		dir, f.next = dirWest, n.tileAt(x-1, y)
	case y < dy:
		dir, f.next = dirSouth, n.tileAt(x, y+1)
	default:
		dir, f.next = dirNorth, n.tileAt(x, y-1)
	}
	l := &n.links[at][dir]
	depart := ready + n.cfg.RouterDelay
	if l.nextFree > depart {
		depart = l.nextFree
	}
	occupancy := sim.Time(n.flits(f.msg.Size)) // one flit per cycle on the link
	l.nextFree = depart + occupancy
	arrive := depart + occupancy - 1 + n.cfg.LinkDelay
	n.stats.Hops++
	if n.k.TracingEnabled() {
		// One span per hop covering the link's occupancy: contended links
		// show as back-to-back flit bursts on the link's track.
		if l.track == "" {
			l.track = fmt.Sprintf("noc.t%d.%s", at, [...]string{"E", "W", "N", "S"}[dir])
		}
		n.k.TraceSpanAt(l.track, fmt.Sprintf("t%d>t%d", f.msg.Src, f.msg.Dst), depart, occupancy)
	}
	n.k.AtCall(arrive, n.arriveFn, id)
}

// arrive lands in-flight message id at the far end of its current hop.
func (n *Network) arrive(id uint32) {
	f := &n.flights[id]
	if f.next == f.msg.Dst {
		// Ejection at the destination router.
		n.k.AtCall(n.k.Now()+n.cfg.RouterDelay, n.deliverFn, id)
		return
	}
	n.hop(id, f.next, n.k.Now())
}

// deliver frees in-flight record id and hands its message to the port
// handler, which may send again and reuse the record.
func (n *Network) deliver(id uint32) {
	msg := n.flights[id].msg
	n.free = append(n.free, id)
	h := n.handlers[msg.Dst][msg.Port]
	if h == nil {
		panic(fmt.Sprintf("noc: message kind %d delivered to tile %d port %d with no handler", msg.Kind, msg.Dst, msg.Port))
	}
	h(msg)
}
