// Package coherence implements the SoC's cache-coherence fabric: write-back
// MESI private caches and blocking home directories distributed across the
// mesh, in the style of OpenPiton's P-Mesh protocol.
//
// The design choices that keep the protocol tractable (and which the tests
// lean on):
//
//   - The directory is *blocking*: at most one transaction is in flight per
//     line; later requests queue at the home bank in arrival order.
//   - The NoC preserves FIFO order per (source, destination) pair, so a
//     directory's messages for consecutive transactions on a line arrive at
//     a cache in serialization order.
//   - The only remaining race — an owner's PutM crossing a Fetch for the
//     same line — is resolved explicitly: the directory completes the
//     pending transaction with the PutM's data and discards the stale
//     FetchResp that follows.
//
// Queue coherence (paper §3.2/§4.2.3) builds directly on this fabric: a
// Cohort endpoint holds a queue-pointer line in Shared state, and the
// invalidation delivered when the other side writes the pointer is the
// wake-up signal, observed via Cache.OnInvalidate.
package coherence

import (
	"cohort/internal/mem"
	"cohort/internal/sim"
)

// Config sets cache geometry and timing.
type Config struct {
	Sets int // number of sets per cache
	Ways int // associativity

	HitLatency sim.Time // L1 hit
	DirLatency sim.Time // home bank lookup/occupancy per transaction
	MemLatency sim.Time // extra latency on first touch of a line (DRAM fill into L2)

	ExclusiveGrant bool // grant E on GetS with no sharers (MESI); false = MSI
}

// DefaultConfig mirrors the paper's FPGA configuration scale: 8 KiB 4-way L1
// with 64 B lines (32 sets), MESI.
func DefaultConfig() Config {
	return Config{
		Sets:           32,
		Ways:           4,
		HitLatency:     1,
		DirLatency:     40,
		MemLatency:     100,
		ExclusiveGrant: true,
	}
}

// Message kinds on the directory port, cache -> directory: the requests a
// home bank queues and serves one at a time per line, then the completions
// of its Invs and Fetches.
type reqKind uint8

const (
	reqGetS    reqKind = iota // read miss: want Shared (or Exclusive) copy
	reqGetM                   // write miss/upgrade: want Modified copy
	reqPutM                   // eviction of an owned line, with data
	reqGetOnce                // coherent non-caching read (page-table walks)
	reqPutOnce                // coherent non-caching word write (WCM pointer updates)
	ackInv                    // InvAck
	ackFetch                  // FetchResp, carrying the line if flagData is set
)

func (r reqKind) String() string {
	switch r {
	case reqGetS:
		return "GetS"
	case reqGetM:
		return "GetM"
	case reqPutM:
		return "PutM"
	case reqGetOnce:
		return "GetOnce"
	case reqPutOnce:
		return "PutOnce"
	case ackInv:
		return "InvAck"
	case ackFetch:
		return "FetchResp"
	}
	return "?"
}

// request is a transaction as its home bank queues it. Its message carried
// the line address (PutOnce: the first word's address) in Addr, PutOnce's
// word count in Val, and PutM's line or PutOnce's words in Line.
type request struct {
	kind reqKind
	line mem.PAddr
	src  int    // requesting tile
	off  uint64 // PutOnce: byte offset of the first word within the line
	n    int    // PutOnce: words written
	data [mem.LineSize]byte
}

// Message kinds on the cache port, directory -> cache.
type respKind uint8

const (
	respDataS    respKind = iota // line data, install Shared
	respDataE                    // line data, install Exclusive
	respDataM                    // line data, install Modified
	respDataOnce                 // line data, do not install (GetOnce reply)
	respInv                      // invalidate, reply InvAck
	respFetch                    // surrender data; downgrade or invalidate
	respPutAck                   // PutM complete
	respWriteAck                 // PutOnce complete
)

func (r respKind) String() string {
	switch r {
	case respDataS:
		return "DataS"
	case respDataE:
		return "DataE"
	case respDataM:
		return "DataM"
	case respDataOnce:
		return "DataOnce"
	case respInv:
		return "Inv"
	case respFetch:
		return "Fetch"
	case respPutAck:
		return "PutAck"
	case respWriteAck:
		return "WriteAck"
	}
	return "?"
}

// Message flags. Every coherence message carries its line address in Addr
// and, where it has data, the line in Line.
const (
	flagData      = 1 << iota // FetchResp: Line holds the owner's data
	flagDowngrade             // Fetch: keep a Shared copy rather than invalidate
)

// Message sizes in bytes for NoC timing: header-only control vs line-carrying.
const (
	ctrlMsgBytes = 16
	dataMsgBytes = 16 + mem.LineSize
)
