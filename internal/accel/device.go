package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"cohort/internal/sim"
)

// Device is a simulated accelerator behind latency-insensitive valid/ready
// word streams (paper §4.3). The Cohort engine's consumer endpoint feeds
// `in`; the producer endpoint drains `out`. Backpressure is the queues'
// bounded capacity: a full output queue stalls the device exactly like a
// deasserted ready signal.
//
// All devices speak 64-bit words — the endpoint interface width of the
// prototype — and perform their own ratcheting to the kernel's natural block
// size (SHA: 8 words in, 4 out; AES: 2 in, 2 out; …).
type Device interface {
	// Name identifies the device in stats and errors.
	Name() string
	// Latency is the block compute latency in cycles.
	Latency() sim.Time
	// Configure installs the CSR configuration struct passed at queue
	// registration (§4.3), e.g. the AES key.
	Configure(csr []byte) error
	// Start launches the device bridging in to out, as a kernel-context
	// state machine (see machine).
	Start(k *sim.Kernel, in, out *sim.Queue[uint64])
	// Blocks reports how many blocks have been processed.
	Blocks() uint64
}

// WordsToBytes unpacks little-endian 64-bit words.
func WordsToBytes(words []uint64) []byte {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// BytesToWords packs bytes (length a multiple of 8) into words.
func BytesToWords(b []byte) []uint64 {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("accel: %d bytes do not pack into words", len(b)))
	}
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}

// BlockDevice is a fixed-ratio streaming device: consume inWords, compute
// for latency cycles, emit outWords.
type BlockDevice struct {
	name      string
	inWords   int
	outWords  int
	latency   sim.Time
	configure func(csr []byte) error
	// process computes one block: it reads len(in) == inWords words and
	// fills len(out) == outWords words. Both buffers belong to the run.
	process func(in, out []uint64)
	blocks  uint64
}

// Name implements Device.
func (d *BlockDevice) Name() string { return d.name }

// InWords returns the words consumed per block.
func (d *BlockDevice) InWords() int { return d.inWords }

// OutWords returns the words produced per block.
func (d *BlockDevice) OutWords() int { return d.outWords }

// Latency implements Device.
func (d *BlockDevice) Latency() sim.Time { return d.latency }

// Blocks implements Device.
func (d *BlockDevice) Blocks() uint64 { return d.blocks }

// Configure implements Device.
func (d *BlockDevice) Configure(csr []byte) error {
	if d.configure == nil {
		return nil
	}
	return d.configure(csr)
}

// machine is the kernel-context half of a device: its word queues and its
// step function, bound once. A device runs no process. Its step pulls words
// with TryGet and pushes them with TryPut; where a process would block in Get
// or Put, the step re-arms itself on the queue (NotifyNotEmpty/NotifyNotFull)
// and returns, and where a process would Wait, it schedules itself. Each of
// those fires at the (time, sequence) position the process's resume would
// take, so the device produces the same events in the same order as a
// process would — without a goroutine or a context switch.
type machine struct {
	k       *sim.Kernel
	in, out *sim.Queue[uint64]
	step    func()
}

// start schedules the first step where a process spawned now would start.
func (m *machine) start(k *sim.Kernel, in, out *sim.Queue[uint64], step func()) {
	*m = machine{k: k, in: in, out: out, step: step}
	k.After(0, step)
}

// get moves the next input word into *dst, or re-arms the step and reports
// false when the input queue is empty.
func (m *machine) get(dst *uint64) bool {
	v, ok := m.in.TryGet()
	if !ok {
		m.in.NotifyNotEmpty(m.step)
		return false
	}
	*dst = v
	return true
}

// put offers v to the output queue, or re-arms the step and reports false
// when the queue is full (the consumer deasserted ready).
func (m *machine) put(v uint64) bool {
	if !m.out.TryPut(v) {
		m.out.NotifyNotFull(m.step)
		return false
	}
	return true
}

// compute charges lat cycles of device occupancy: a busy span on the
// device's trace track, then the next step lat cycles from now.
func (m *machine) compute(track string, lat sim.Time) {
	if lat > 0 {
		m.k.TraceSpanAt(track, track, m.k.Now(), lat)
	}
	m.k.After(lat, m.step)
}

// Phases of a device's state machine.
const (
	phaseGather  = iota // assembling input words
	phaseCompute        // the compute latency has elapsed
	phaseEmit           // offering output words
	phaseHeader         // reading a variable-length job's count or length word
)

// blockRun is one started BlockDevice: assemble a block word by word (the
// ratchet), compute for the block latency, emit the result.
type blockRun struct {
	machine
	d        *BlockDevice
	phase    int
	buf, res []uint64
	i        int // words of buf gathered, or of res emitted
}

// Start implements Device.
func (d *BlockDevice) Start(k *sim.Kernel, in, out *sim.Queue[uint64]) {
	r := &blockRun{d: d, buf: make([]uint64, d.inWords), res: make([]uint64, d.outWords)}
	r.start(k, in, out, r.run)
}

func (r *blockRun) run() {
	d := r.d
	for {
		switch r.phase {
		case phaseGather:
			for ; r.i < len(r.buf); r.i++ {
				if !r.get(&r.buf[r.i]) {
					return
				}
			}
			r.phase = phaseCompute
			r.compute(d.name, d.latency)
			return
		case phaseCompute:
			d.process(r.buf, r.res)
			r.i, r.phase = 0, phaseEmit
		case phaseEmit:
			for ; r.i < len(r.res); r.i++ {
				if !r.put(r.res[r.i]) {
					return // blocks when the consumer backpressures
				}
			}
			r.i, r.phase = 0, phaseGather
			d.blocks++
		}
	}
}

// Paper §6.1: measured block latencies of the FPGA accelerators.
const (
	SHALatency sim.Time = 66
	AESLatency sim.Time = 41
)

// NewSHADevice returns the SHA-256 accelerator: 512-bit blocks in (8 words),
// 256-bit digests out (4 words), 66-cycle latency.
func NewSHADevice() *BlockDevice {
	return &BlockDevice{
		name:     "sha256",
		inWords:  8,
		outWords: 4,
		latency:  SHALatency,
		process: func(in, out []uint64) {
			var blk [sha256.BlockSize]byte
			for i, w := range in {
				binary.LittleEndian.PutUint64(blk[8*i:], w)
			}
			sum := sha256.Sum256(blk[:])
			for i := range out {
				out[i] = binary.LittleEndian.Uint64(sum[8*i:])
			}
		},
	}
}

// NewAESDevice returns the AES-128 accelerator: 128-bit blocks (2 words) in
// and out, 41-cycle latency. The key arrives via the CSR struct at
// registration time (§4.3); until then the device encrypts with the zero key.
func NewAESDevice() *BlockDevice {
	cipher, _ := NewAES(make([]byte, AESKeySize))
	d := &BlockDevice{
		name:     "aes128",
		inWords:  2,
		outWords: 2,
		latency:  AESLatency,
	}
	d.configure = func(csr []byte) error {
		c, err := NewAES(csr)
		if err != nil {
			return err
		}
		cipher = c
		return nil
	}
	d.process = func(in, out []uint64) {
		var blk [AESBlockSize]byte
		binary.LittleEndian.PutUint64(blk[0:], in[0])
		binary.LittleEndian.PutUint64(blk[8:], in[1])
		cipher.Encrypt(blk[:], blk[:])
		out[0] = binary.LittleEndian.Uint64(blk[0:])
		out[1] = binary.LittleEndian.Uint64(blk[8:])
	}
	return d
}

// NewNullDevice returns the AXI-Stream FIFO "null" accelerator of §4.3: a
// pass-through used to validate the stream plumbing.
func NewNullDevice(latency sim.Time) *BlockDevice {
	return &BlockDevice{
		name:     "axis-null",
		inWords:  1,
		outWords: 1,
		latency:  latency,
		process:  func(in, out []uint64) { out[0] = in[0] },
	}
}

// NewSTFTDevice returns the short-time Fourier transform accelerator: it
// consumes `window` float64-bit samples and emits `window` magnitude words.
func NewSTFTDevice(window int) (*BlockDevice, error) {
	if window <= 0 || window&(window-1) != 0 {
		return nil, fmt.Errorf("accel: STFT window %d is not a power of two", window)
	}
	win := HannWindow(window)
	// A pipelined butterfly network retires roughly n*log2(n)/2 ops.
	lat := sim.Time(1)
	for n := window; n > 1; n >>= 1 {
		lat += sim.Time(window / 2)
	}
	frame := make([]complex128, window)
	return &BlockDevice{
		name:     "stft",
		inWords:  window,
		outWords: window,
		latency:  lat,
		process: func(in, out []uint64) {
			for i, w := range in {
				frame[i] = complex(math.Float64frombits(w)*win[i], 0)
			}
			if err := FFT(frame); err != nil {
				panic(err) // window validated at construction
			}
			for i, c := range frame {
				out[i] = math.Float64bits(math.Hypot(real(c), imag(c)))
			}
		},
	}, nil
}

// H264Device is the variable-input-length video encoder device: the first
// input word carries the frame count (like the hardh264 instance the paper
// integrated), frame pixels stream in as packed words, and the output is a
// length-prefixed bitstream.
type H264Device struct {
	cfg     H264Config
	enc     *H264Encoder
	latency sim.Time
	blocks  uint64
}

// NewH264Device builds the device with a default configuration; the real
// configuration arrives via the CSR struct.
func NewH264Device() *H264Device {
	cfg := H264Config{Width: 16, Height: 16, QP: 4}
	enc, err := NewH264Encoder(cfg)
	if err != nil {
		panic(err)
	}
	return &H264Device{cfg: cfg, enc: enc, latency: 400}
}

// Name implements Device.
func (d *H264Device) Name() string { return "h264" }

// Latency implements Device.
func (d *H264Device) Latency() sim.Time { return d.latency }

// Blocks implements Device.
func (d *H264Device) Blocks() uint64 { return d.blocks }

// Configure implements Device. The CSR struct is three little-endian 32-bit
// words: width, height, QP.
func (d *H264Device) Configure(csr []byte) error {
	if len(csr) < 12 {
		return fmt.Errorf("accel: h264 CSR struct needs 12 bytes, got %d", len(csr))
	}
	cfg := H264Config{
		Width:  int(binary.LittleEndian.Uint32(csr[0:])),
		Height: int(binary.LittleEndian.Uint32(csr[4:])),
		QP:     int(binary.LittleEndian.Uint32(csr[8:])),
	}
	enc, err := NewH264Encoder(cfg)
	if err != nil {
		return err
	}
	d.cfg = cfg
	d.enc = enc
	return nil
}

// h264Run is one started H264Device: read the frame count, then per frame
// gather its words and compute for the frame latency, then encode and emit
// the length-prefixed bitstream.
type h264Run struct {
	machine
	d             *H264Device
	phase         int // phaseHeader, phaseGather (one frame), phaseEmit
	nframes       uint64
	wordsPerFrame int
	frames        [][]byte
	words         []uint64 // the frame being gathered, or the output being emitted
	i             int
}

// Start implements Device.
func (d *H264Device) Start(k *sim.Kernel, in, out *sim.Queue[uint64]) {
	r := &h264Run{d: d, phase: phaseHeader}
	r.start(k, in, out, r.run)
}

func (r *h264Run) run() {
	d := r.d
	for {
		switch r.phase {
		case phaseHeader:
			if !r.get(&r.nframes) {
				return
			}
			r.frames = make([][]byte, 0, int(r.nframes))
			r.wordsPerFrame = (d.enc.FrameSize() + 7) / 8
			r.words, r.phase = nil, phaseGather
		case phaseGather:
			if r.words == nil {
				if len(r.frames) == int(r.nframes) {
					r.encode()
					continue
				}
				r.words, r.i = make([]uint64, r.wordsPerFrame), 0
			}
			for ; r.i < len(r.words); r.i++ {
				if !r.get(&r.words[r.i]) {
					return
				}
			}
			r.frames = append(r.frames, WordsToBytes(r.words)[:d.enc.FrameSize()])
			r.words = nil
			r.compute("h264", d.latency) // per-frame compute
			return
		case phaseEmit:
			for ; r.i < len(r.words); r.i++ {
				if !r.put(r.words[r.i]) {
					return
				}
			}
			d.blocks += r.nframes
			r.phase = phaseHeader
		}
	}
}

// encode codes the gathered frames and stages the output words: the stream
// length, then the stream padded to whole words.
func (r *h264Run) encode() {
	stream, err := r.d.enc.Encode(r.frames)
	if err != nil {
		panic(fmt.Sprintf("accel: h264 encode: %v", err))
	}
	padded := make([]byte, (len(stream)+7)/8*8)
	copy(padded, stream)
	r.words = append([]uint64{uint64(len(stream))}, BytesToWords(padded)...)
	r.frames, r.i, r.phase = nil, 0, phaseEmit
}
