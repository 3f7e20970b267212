package cohort

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cohort/internal/accel"
)

func TestFifoBasics(t *testing.T) {
	q, err := NewFifo[int](5) // rounds to 8
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", q.Cap())
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("TryPush %d failed", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push into full queue succeeded")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if _, err := NewFifo[int](0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestFifoSPSCOrderUnderConcurrency(t *testing.T) {
	q, _ := NewFifo[uint64](64)
	const n = 100000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			q.Push(i)
		}
	}()
	for i := uint64(0); i < n; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("element %d = %d (reordered or lost)", i, v)
		}
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestFifoWrapAroundProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		q, _ := NewFifo[uint32](4)
		for _, v := range vals {
			q.Push(v) // same goroutine: push/pop interleaved
			if q.Pop() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSHA256EngineMatchesReference(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, err := Register(NewSHA256(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	data := make([]byte, 512) // 8 blocks
	rand.New(rand.NewSource(1)).Read(data)
	in.PushAll(BytesToWords(data))
	for b := 0; b < 8; b++ {
		digest := WordsToBytes(out.PopN(4))
		want := sha256.Sum256(data[64*b : 64*b+64])
		if !bytes.Equal(digest, want[:]) {
			t.Fatalf("block %d digest mismatch", b)
		}
	}
	st := e.StatsDetail()
	if st.WordsIn != 64 || st.WordsOut != 32 {
		t.Fatalf("stats %d/%d, want 64/32", st.WordsIn, st.WordsOut)
	}
}

func TestAES128EngineWithCSRKey(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	key := []byte("0123456789abcdef")
	e, err := Register(NewAES128(), in, out, WithCSR(key))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	pt := []byte("sixteen byte msg")
	in.PushAll(BytesToWords(pt))
	ct := WordsToBytes(out.PopN(2))
	ref, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(ct, want) {
		t.Fatal("ciphertext mismatch")
	}
}

func TestBadCSRRejectedAtRegister(t *testing.T) {
	in, _ := NewFifo[Word](4)
	out, _ := NewFifo[Word](4)
	if _, err := Register(NewAES128(), in, out, WithCSR([]byte("short"))); err == nil {
		t.Fatal("bad key accepted")
	}
}

func TestEncryptThenDecryptChain(t *testing.T) {
	// AES encrypt -> AES decrypt: identity pipeline over 2 engines.
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	key := []byte("a secret 16B key")
	enc := NewAES128()
	dec := NewAES128Decrypt()
	if err := enc.Configure(key); err != nil {
		t.Fatal(err)
	}
	if err := dec.Configure(key); err != nil {
		t.Fatal(err)
	}
	engines, err := Chain(in, out, 32, enc, dec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range engines {
			e.Unregister()
		}
	}()
	data := make([]byte, 256)
	rand.New(rand.NewSource(2)).Read(data)
	in.PushAll(BytesToWords(data))
	got := WordsToBytes(out.PopN(len(data) / 8))
	if !bytes.Equal(got, data) {
		t.Fatal("encrypt-then-decrypt chain is not identity")
	}
}

func TestEncryptThenHashChain(t *testing.T) {
	// The Figure 5 pipeline: AES then SHA, no software in between.
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	engines, err := Chain(in, out, 32, NewAES128(), NewSHA256())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range engines {
			e.Unregister()
		}
	}()
	data := make([]byte, 64)
	rand.New(rand.NewSource(3)).Read(data)
	in.PushAll(BytesToWords(data))
	digest := WordsToBytes(out.PopN(4))

	ref, _ := aes.NewCipher(make([]byte, 16))
	enc := make([]byte, 64)
	for i := 0; i < 64; i += 16 {
		ref.Encrypt(enc[i:], data[i:])
	}
	want := sha256.Sum256(enc)
	if !bytes.Equal(digest, want[:]) {
		t.Fatal("encrypt-then-hash chain mismatch")
	}
}

func TestRuntimeReconfiguration(t *testing.T) {
	// Unregister an engine and rebind its accelerator to new queues (§4.5).
	acc := NewNull()
	q1, _ := NewFifo[Word](8)
	q2, _ := NewFifo[Word](8)
	e1, err := Register(acc, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	q1.Push(7)
	if got := q2.Pop(); got != 7 {
		t.Fatalf("got %d", got)
	}
	e1.Unregister()
	e1.Unregister() // idempotent

	q3, _ := NewFifo[Word](8)
	q4, _ := NewFifo[Word](8)
	e2, err := Register(acc, q3, q4)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Unregister()
	q3.Push(9)
	if got := q4.Pop(); got != 9 {
		t.Fatalf("got %d after reconfiguration", got)
	}
	// The old queues are no longer serviced.
	q1.Push(1)
	if _, ok := q2.TryPop(); ok {
		t.Fatal("unregistered engine still moving data")
	}
}

func TestNullAcceleratorThroughput(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, _ := Register(NewNull(), in, out)
	defer e.Unregister()
	for i := Word(0); i < 10000; i++ {
		in.Push(i)
		if got := out.Pop(); got != i {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestH264AcceleratorRoundTrip(t *testing.T) {
	cfg := H264Config{Width: 16, Height: 16, QP: 1}
	acc, err := NewH264(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](acc.OutWords() + 1)
	e, err := Register(acc, in, out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	frame := make([]byte, 256)
	rand.New(rand.NewSource(4)).Read(frame)
	in.PushAll(BytesToWords(frame))
	block := out.PopN(acc.OutWords())
	stream, err := DecodeH264Output(block)
	if err != nil {
		t.Fatal(err)
	}
	frames, gotCfg, err := accel.H264Decoder{}.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg || len(frames) != 1 || !bytes.Equal(frames[0], frame) {
		t.Fatal("h264 accelerator round trip failed (QP=1 must be lossless)")
	}
}

// TestDecodeH264OutputRejectsBadLength: a length word past the block's
// bytes is an error, including one that would be negative as an int.
func TestDecodeH264OutputRejectsBadLength(t *testing.T) {
	for _, block := range [][]Word{nil, {9, 0}, {1 << 63, 0}, {^Word(0)}} {
		if stream, err := DecodeH264Output(block); err == nil {
			t.Errorf("DecodeH264Output(%#x) = %d bytes, want an error", block, len(stream))
		}
	}
	if stream, err := DecodeH264Output([]Word{8, 0}); err != nil || len(stream) != 8 {
		t.Errorf("DecodeH264Output({8, 0}) = %d bytes, %v; want 8 bytes", len(stream), err)
	}
}

func TestH264CSRGeometryMismatchRejected(t *testing.T) {
	acc, err := NewH264(H264Config{Width: 16, Height: 16, QP: 2})
	if err != nil {
		t.Fatal(err)
	}
	csr := make([]byte, 12)
	csr[0] = 32 // width 32 != 16
	csr[4] = 16
	csr[8] = 2
	if err := acc.Configure(csr); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSTFTAccelerator(t *testing.T) {
	acc, err := NewSTFT(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSTFT(63); err == nil {
		t.Fatal("bad window accepted")
	}
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, _ := Register(acc, in, out)
	defer e.Unregister()
	// A pure tone at bin 8.
	words := make([]Word, 64)
	for i := range words {
		words[i] = mathFloat64bits(sin2pi(8 * float64(i) / 64))
	}
	in.PushAll(words)
	mags := out.PopN(64)
	peak, best := 0, 0.0
	for i := 0; i < 32; i++ {
		if m := mathFloat64frombits(mags[i]); m > best {
			best, peak = m, i
		}
	}
	if peak != 8 {
		t.Fatalf("spectral peak at %d, want 8", peak)
	}
}

func TestChainValidation(t *testing.T) {
	in, _ := NewFifo[Word](4)
	out, _ := NewFifo[Word](4)
	if _, err := Chain(in, out, 8); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := Register(NewNull(), nil, out); err == nil {
		t.Fatal("nil queue accepted")
	}
}

// Stress: chained engines under the race detector with concurrent
// producer/consumer goroutines.
func TestChainStressConcurrent(t *testing.T) {
	in, _ := NewFifo[Word](32)
	out, _ := NewFifo[Word](32)
	engines, err := Chain(in, out, 16, NewNull(), NewNull(), NewNull())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range engines {
			e.Unregister()
		}
	}()
	const n = 50000
	go func() {
		for i := Word(0); i < n; i++ {
			in.Push(i)
		}
	}()
	for i := Word(0); i < n; i++ {
		if got := out.Pop(); got != i {
			t.Fatalf("word %d = %d through 3-stage chain", i, got)
		}
	}
}
