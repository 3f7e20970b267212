package accel

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"cohort/internal/sim"
)

// runDevice feeds words through a device inside a fresh kernel and returns
// the collected outputs.
func runDevice(t *testing.T, d Device, in []uint64, wantOut int) []uint64 {
	t.Helper()
	k := sim.New()
	inQ := sim.NewQueue[uint64](k, 2)
	outQ := sim.NewQueue[uint64](k, 2)
	d.Start(k, inQ, outQ)
	var out []uint64
	k.Spawn("feeder", func(p *sim.Proc) {
		for _, w := range in {
			inQ.Put(p, w)
		}
	})
	k.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < wantOut; i++ {
			out = append(out, outQ.Get(p))
		}
	})
	k.Run(0)
	if len(out) != wantOut {
		t.Fatalf("device produced %d words, want %d", len(out), wantOut)
	}
	return out
}

func TestSHADeviceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	block := make([]byte, 64)
	rng.Read(block)
	out := runDevice(t, NewSHADevice(), BytesToWords(block), 4)
	want := sha256.Sum256(block)
	if !bytes.Equal(WordsToBytes(out), want[:]) {
		t.Fatal("SHA device digest mismatch")
	}
}

func TestSHADeviceLatencyPerBlock(t *testing.T) {
	d := NewSHADevice()
	k := sim.New()
	inQ := sim.NewQueue[uint64](k, 16)
	outQ := sim.NewQueue[uint64](k, 16)
	d.Start(k, inQ, outQ)
	var doneAt sim.Time
	k.Spawn("feeder", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			inQ.Put(p, uint64(i))
		}
		for i := 0; i < 4; i++ {
			outQ.Get(p)
		}
		doneAt = p.Now()
	})
	k.Run(0)
	if doneAt < SHALatency {
		t.Fatalf("block completed at %d, before the %d-cycle latency", doneAt, SHALatency)
	}
	if d.Blocks() != 1 {
		t.Fatalf("blocks = %d", d.Blocks())
	}
}

func TestAESDeviceUsesCSRKey(t *testing.T) {
	key := []byte("0123456789abcdef")
	d := NewAESDevice()
	if err := d.Configure(key); err != nil {
		t.Fatal(err)
	}
	pt := []byte("quick brown fox!")
	out := runDevice(t, d, BytesToWords(pt), 2)
	ref, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(WordsToBytes(out), want) {
		t.Fatal("AES device ciphertext mismatch")
	}
}

func TestAESDeviceRejectsBadCSR(t *testing.T) {
	if err := NewAESDevice().Configure([]byte("short")); err == nil {
		t.Fatal("bad key accepted")
	}
}

func TestNullDevicePassthroughOrder(t *testing.T) {
	in := []uint64{5, 4, 3, 2, 1, 0xdeadbeef}
	out := runDevice(t, NewNullDevice(1), in, len(in))
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d: %d != %d", i, out[i], in[i])
		}
	}
}

func TestDeviceBackpressure(t *testing.T) {
	// With a full output queue and no drain, the device must stall rather
	// than drop words (deasserted ready).
	k := sim.New()
	inQ := sim.NewQueue[uint64](k, 64)
	outQ := sim.NewQueue[uint64](k, 2)
	d := NewNullDevice(1)
	d.Start(k, inQ, outQ)
	k.Spawn("feeder", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			inQ.Put(p, uint64(i))
		}
	})
	k.Run(0)
	if outQ.Len() != 2 {
		t.Fatalf("output queue has %d words, want 2 (capacity)", outQ.Len())
	}
	// Now drain and confirm nothing was lost, in order.
	var got []uint64
	k.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			got = append(got, outQ.Get(p))
		}
	})
	k.Run(0)
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("word %d = %d after backpressure", i, v)
		}
	}
}

func TestH264DeviceEndToEnd(t *testing.T) {
	d := NewH264Device()
	csr := make([]byte, 12)
	binary.LittleEndian.PutUint32(csr[0:], 16)
	binary.LittleEndian.PutUint32(csr[4:], 16)
	binary.LittleEndian.PutUint32(csr[8:], 1) // QP 1: lossless
	if err := d.Configure(csr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	frame := make([]byte, 256)
	rng.Read(frame)

	k := sim.New()
	inQ := sim.NewQueue[uint64](k, 8)
	outQ := sim.NewQueue[uint64](k, 8)
	d.Start(k, inQ, outQ)
	var stream []byte
	k.Spawn("feeder", func(p *sim.Proc) {
		inQ.Put(p, 1) // one frame
		for _, w := range BytesToWords(frame) {
			inQ.Put(p, w)
		}
	})
	k.Spawn("drain", func(p *sim.Proc) {
		n := int(outQ.Get(p))
		words := (n + 7) / 8
		var buf []uint64
		for i := 0; i < words; i++ {
			buf = append(buf, outQ.Get(p))
		}
		stream = WordsToBytes(buf)[:n]
	})
	k.Run(0)
	frames, cfg, err := H264Decoder{}.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 16 || cfg.QP != 1 || len(frames) != 1 {
		t.Fatalf("decoded cfg %+v, %d frames", cfg, len(frames))
	}
	if !bytes.Equal(frames[0], frame) {
		t.Fatal("H264 device round trip mismatch at QP=1")
	}
}

func TestH264DeviceBadCSR(t *testing.T) {
	if err := NewH264Device().Configure([]byte{1, 2}); err == nil {
		t.Fatal("short CSR accepted")
	}
	csr := make([]byte, 12) // zero width/height/QP
	if err := NewH264Device().Configure(csr); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSTFTDeviceSpectralPeak(t *testing.T) {
	d, err := NewSTFTDevice(64)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, 64)
	for i := range in {
		in[i] = math.Float64bits(math.Sin(2 * math.Pi * 8 * float64(i) / 64))
	}
	out := runDevice(t, d, in, 64)
	peak, best := 0, 0.0
	for i := 0; i < 32; i++ {
		if m := math.Float64frombits(out[i]); m > best {
			best, peak = m, i
		}
	}
	if peak != 8 {
		t.Fatalf("spectral peak at bin %d, want 8", peak)
	}
}

func TestSTFTDeviceValidation(t *testing.T) {
	if _, err := NewSTFTDevice(100); err == nil {
		t.Fatal("non-power-of-two window accepted")
	}
}

// One warm block through the SHA or AES device allocates nothing: the
// device packs its input into a fixed block and writes its result into its
// run's own buffer.
func TestWarmDeviceBlockAllocs(t *testing.T) {
	for _, d := range []*BlockDevice{NewSHADevice(), NewAESDevice()} {
		k := sim.New()
		inQ := sim.NewQueue[uint64](k, d.InWords())
		outQ := sim.NewQueue[uint64](k, d.OutWords())
		d.Start(k, inQ, outQ)
		in := make([]uint64, d.InWords())
		out := make([]uint64, d.OutWords())
		block := func() {
			for i := range in {
				in[i]++
				inQ.TryPut(in[i])
			}
			k.Run(0)
			for i := range out {
				out[i], _ = outQ.TryGet()
			}
			k.Run(0)
		}
		block()
		if n := testing.AllocsPerRun(50, block); n != 0 {
			t.Fatalf("%s: %.1f allocations per warm block, want 0", d.Name(), n)
		}
		var want []byte
		if d.Name() == "sha256" {
			sum := sha256.Sum256(WordsToBytes(in))
			want = sum[:]
		} else {
			c, _ := aes.NewCipher(make([]byte, AESKeySize))
			want = make([]byte, AESBlockSize)
			c.Encrypt(want, WordsToBytes(in))
		}
		if !bytes.Equal(WordsToBytes(out), want) || d.Blocks() != 52 {
			t.Fatalf("%s: last block %x after %d blocks, want %x after 52", d.Name(), WordsToBytes(out), d.Blocks(), want)
		}
	}
}
