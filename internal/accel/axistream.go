package accel

import (
	"crypto/sha256"
	"fmt"

	"cohort/internal/sim"
)

// AXI-Stream support (§4.3: "Our prototype supports both simple valid-ready
// handshakes and AXI-Stream as latency insensitive interfaces"). An
// AXI-Stream beat carries 64 bits of TDATA plus a TLAST marker closing a
// packet; the adapter below lets packet-oriented accelerators sit behind the
// same word queues the Cohort endpoints drive, with the ratchet encoding
// TLAST in-band.

// PacketFunc transforms one complete packet (the TDATA words of beats up to
// and including TLAST) into an output packet.
type PacketFunc func(packet []uint64) ([]uint64, error)

// AXIStreamDevice adapts a packet-transform accelerator to the engine's word
// streams. The in-band framing convention mirrors how streaming protocols
// ride 64-bit fabrics: each packet is preceded by one word carrying its beat
// count, which the adapter's ratchet turns into TLAST on the final beat.
type AXIStreamDevice struct {
	name    string
	latency sim.Time // per-beat processing latency
	fn      PacketFunc
	packets uint64
	beats   uint64
}

// NewAXIStreamDevice wraps fn as a streaming device.
func NewAXIStreamDevice(name string, perBeatLatency sim.Time, fn PacketFunc) *AXIStreamDevice {
	return &AXIStreamDevice{name: name, latency: perBeatLatency, fn: fn}
}

// Name implements Device.
func (d *AXIStreamDevice) Name() string { return d.name }

// Latency implements Device (per-beat).
func (d *AXIStreamDevice) Latency() sim.Time { return d.latency }

// Blocks implements Device: completed packets.
func (d *AXIStreamDevice) Blocks() uint64 { return d.packets }

// Beats reports total beats transferred (both directions).
func (d *AXIStreamDevice) Beats() uint64 { return d.beats }

// Configure implements Device (no CSRs by default).
func (d *AXIStreamDevice) Configure([]byte) error { return nil }

// axisRun is one started AXIStreamDevice: read a packet's length prefix,
// take its beats one per beat latency (TLAST falls on the length'th beat),
// transform, and emit the result with the same framing.
type axisRun struct {
	machine
	d      *AXIStreamDevice
	phase  int // phaseHeader, phaseGather, phaseEmit
	n      uint64
	beat   uint64
	packet []uint64
	words  []uint64 // the output frame: length prefix, then beats
	i      int
}

// Start implements Device.
func (d *AXIStreamDevice) Start(k *sim.Kernel, in, out *sim.Queue[uint64]) {
	r := &axisRun{d: d, phase: phaseHeader}
	r.start(k, in, out, r.run)
}

func (r *axisRun) run() {
	d := r.d
	for {
		switch r.phase {
		case phaseHeader:
			if !r.get(&r.n) {
				return
			}
			if r.n == 0 {
				// Zero-length packets are legal AXI-Stream; pass the frame on.
				r.words = append(r.words[:0], 0)
				r.i, r.phase = 0, phaseEmit
				continue
			}
			r.packet = make([]uint64, 0, r.n)
			r.phase = phaseGather
		case phaseGather:
			if uint64(len(r.packet)) == r.n {
				res, err := d.fn(r.packet)
				if err != nil {
					panic(fmt.Sprintf("accel: %s packet transform: %v", d.name, err))
				}
				r.words = append([]uint64{uint64(len(res))}, res...)
				r.i, r.phase = 0, phaseEmit
				continue
			}
			if !r.get(&r.beat) {
				return
			}
			d.beats++
			r.packet = append(r.packet, r.beat)
			r.compute(d.name, d.latency)
			return
		case phaseEmit:
			for r.i < len(r.words) {
				if !r.put(r.words[r.i]) {
					return
				}
				r.i++
				if r.i < len(r.words) {
					d.beats++ // counted as the beat is offered
				}
			}
			d.packets++
			r.phase = phaseHeader
		}
	}
}

// NewAXIStreamLoopback returns the §4.3 "null accelerator" in its AXI-Stream
// form: a FIFO that echoes packets unchanged.
func NewAXIStreamLoopback(perBeatLatency sim.Time) *AXIStreamDevice {
	return NewAXIStreamDevice("axis-loopback", perBeatLatency,
		func(packet []uint64) ([]uint64, error) { return packet, nil })
}

// NewAXIStreamSHA returns a SHA-256 packet device: each packet is hashed as
// a byte string (8 bytes per beat), TLAST delimiting the message — variable-
// length input without any header games.
func NewAXIStreamSHA(perBeatLatency sim.Time) *AXIStreamDevice {
	return NewAXIStreamDevice("axis-sha256", perBeatLatency,
		func(packet []uint64) ([]uint64, error) {
			sum := sha256.Sum256(WordsToBytes(packet))
			return BytesToWords(sum[:]), nil
		})
}
