package cohort

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
)

func TestEngineBatchedSHAMatchesReference(t *testing.T) {
	// 64 SHA blocks pushed ahead of the engine so block-granular draining
	// actually batches; every digest must still match crypto/sha256.
	const blocks = 64
	in, _ := NewFifo[Word](blocks * 8)
	out, _ := NewFifo[Word](blocks * 4)
	e, err := Register(NewSHA256(), in, out, WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	data := make([]byte, 64*blocks)
	rand.New(rand.NewSource(11)).Read(data)
	in.PushSlice(BytesToWords(data))
	digests := make([]Word, 4*blocks)
	out.PopSlice(digests)
	for b := 0; b < blocks; b++ {
		want := sha256.Sum256(data[64*b : 64*b+64])
		if !bytes.Equal(WordsToBytes(digests[4*b:4*b+4]), want[:]) {
			t.Fatalf("block %d digest mismatch under batched draining", b)
		}
	}
	st := e.StatsDetail()
	if st.WordsIn != 8*blocks || st.WordsOut != 4*blocks || st.Blocks != blocks {
		t.Fatalf("counters = %+v, want 512/256/64", st)
	}
	if st.Wakeups == 0 || st.Wakeups > st.Blocks {
		t.Fatalf("wakeups = %d, want in [1, %d]", st.Wakeups, st.Blocks)
	}
}

func TestEngineBatchOneMatchesSeedBehavior(t *testing.T) {
	// batch=1 degenerates to the seed's block-at-a-time loop.
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(NewNull(), in, out, WithBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	for i := Word(0); i < 1000; i++ {
		in.Push(i)
		if got := out.Pop(); got != i {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	st := e.StatsDetail()
	if st.Blocks != 1000 || st.Wakeups != 1000 {
		t.Fatalf("batch=1 counters = %+v, want 1000 blocks in 1000 wakeups", st)
	}
}

func TestRegisterOptionValidation(t *testing.T) {
	in, _ := NewFifo[Word](4)
	out, _ := NewFifo[Word](4)
	if _, err := Register(NewNull(), in, out, WithBatch(0)); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestChainWithOptions(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	engines, err := ChainWith(in, out, 32,
		[]RegisterOption{WithBatch(4)},
		NewNull(), NewNull())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range engines {
			e.Unregister()
		}
	}()
	words := make([]Word, 256)
	for i := range words {
		words[i] = Word(i * 3)
	}
	go in.PushSlice(words)
	got := make([]Word, len(words))
	out.PopSlice(got)
	for i := range got {
		if got[i] != words[i] {
			t.Fatalf("word %d = %d through batched chain", i, got[i])
		}
	}
}
