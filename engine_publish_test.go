package cohort

// Batched publication: the engine writes a drained batch's results into the
// output ring's free segments and publishes the write index once. These tests
// pin the edges of that — a ring smaller than the batch, end of stream and
// Unregister arriving mid-batch, faults at block k of a batch — where a
// per-block publisher could not go wrong and a per-batch one can.

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"
)

// collect pops everything from q until the stream is drained or the deadline
// passes, taking at most chunk words per pop.
func collect(t *testing.T, q *Fifo[Word], chunk int) []Word {
	t.Helper()
	var got []Word
	buf := make([]Word, chunk)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := q.TryPopInto(buf)
		got = append(got, buf[:n]...)
		if n == 0 {
			if q.Drained() {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("output never closed (%d words so far)", len(got))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// awaitDone joins an engine that should exit on its own.
func awaitDone(t *testing.T, e *Engine) {
	t.Helper()
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not exit")
	}
}

// TestEnginePublishesPartialBatches: with an output queue smaller than one
// batch of results — smaller even than one block — the engine publishes what
// fits, waits for the consumer and carries on; nothing is lost, reordered or
// deadlocked.
func TestEnginePublishesPartialBatches(t *testing.T) {
	for _, tc := range []struct {
		name           string
		acc            Accelerator
		outCap, blocks int
	}{
		{"null/out=8", NewNull(), 8, 4096},
		{"echo8/out=4", &echoAcc{}, 4, 512}, // the ring holds half a result block
		{"sha256/out=8", NewSHA256(), 8, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inW, outW := tc.acc.InWords(), tc.acc.OutWords()
			data := make([]Word, tc.blocks*inW)
			rng := rand.New(rand.NewSource(7))
			for i := range data {
				data[i] = rng.Uint64()
			}
			ref := referenceOutput(t, tc.acc.Name(), data)

			in, _ := NewFifo[Word](1024)
			out, _ := NewFifo[Word](tc.outCap)
			e, err := Register(tc.acc, in, out, WithBatch(64))
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				in.PushSlice(data)
				in.Close()
			}()
			got := collect(t, out, 3) // a consumer slower and smaller than any batch
			awaitDone(t, e)
			if len(got) != len(ref) {
				t.Fatalf("received %d words, want %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("word %d = %#x, want %#x", i, got[i], ref[i])
				}
			}
			st := e.StatsDetail()
			if st.Blocks != uint64(tc.blocks) || st.WordsIn != uint64(len(data)) || st.WordsOut != uint64(tc.blocks*outW) {
				t.Fatalf("counters = %+v, want %d blocks, %d in, %d out", st, tc.blocks, len(data), tc.blocks*outW)
			}
		})
	}
}

// referenceOutput computes the expected stream for the accelerators the
// tests above drive, independently of the engine (and, for sha256, of our
// own kernel).
func referenceOutput(t *testing.T, name string, data []Word) []Word {
	t.Helper()
	switch name {
	case "axis-null", "echo":
		return data
	case "sha256":
		var ref []Word
		for b := 0; b < len(data); b += 8 {
			sum := sha256.Sum256(WordsToBytes(data[b : b+8]))
			ref = append(ref, BytesToWords(sum[:])...)
		}
		return ref
	}
	t.Fatalf("no reference for %s", name)
	return nil
}

// TestEngineEOSMidBatch: the producer finishes — complete blocks plus a
// partial tail — while the engine is held inside the first block of a batch.
// Every complete block must be published before the output closes, and the
// tail is dropped and counted.
func TestEngineEOSMidBatch(t *testing.T) {
	acc := newWideGateAcc() // 8 words in, 8 out, Process parks until released
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	e, err := Register(acc, in, out, WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 11 // two full batches and most of a third
	data := make([]Word, blocks*8+5)
	for i := range data {
		data[i] = Word(i) + 1
	}
	in.PushSlice(data)
	in.Close()
	// The engine is (or will be) parked inside block 0; nothing may be
	// visible downstream, and the close must not overtake the batch.
	time.Sleep(5 * time.Millisecond)
	if out.Len() != 0 || out.Closed() {
		t.Fatalf("output moved while the first block was still in the accelerator: len=%d closed=%v", out.Len(), out.Closed())
	}
	acc.release()
	awaitDone(t, e)
	got := collect(t, out, 64)
	if len(got) != blocks*8 {
		t.Fatalf("received %d words, want %d", len(got), blocks*8)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], data[i])
		}
	}
	if st := e.StatsDetail(); st.Blocks != blocks || st.DroppedWords != 5 {
		t.Fatalf("blocks=%d dropped=%d, want %d and 5", st.Blocks, st.DroppedWords, blocks)
	}
}

// TestUnregisterWhileOutputFull: an engine blocked mid-batch on a full output
// queue nobody reads still honours Unregister promptly, having published
// exactly what fitted.
func TestUnregisterWhileOutputFull(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](4)
	e, err := Register(NewNull(), in, out, WithBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]Word, 32)
	for i := range data {
		data[i] = Word(i) + 100
	}
	in.PushSlice(data)
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() < out.Cap() {
		if time.Now().After(deadline) {
			t.Fatalf("output never filled: len=%d", out.Len())
		}
		time.Sleep(50 * time.Microsecond)
	}
	start := time.Now()
	e.Unregister()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Unregister took %v with the engine blocked on a full output queue", d)
	}
	if e.Err() != nil {
		t.Fatalf("Unregister recorded an error: %v", e.Err())
	}
	got := make([]Word, 8)
	if n := out.TryPopInto(got); n != 4 || got[0] != 100 || got[3] != 103 {
		t.Fatalf("output holds %v, want the first 4 words", got[:n])
	}
	if st := e.StatsDetail(); st.WordsOut != 4 {
		t.Fatalf("WordsOut = %d, want the 4 words that fitted", st.WordsOut)
	}
}

// TestTerminalFaultPublishesCompletedBlocks: a terminal fault at block k of a
// batch parks the engine with exactly the k blocks before it published — not
// none of the batch, and nothing after.
func TestTerminalFaultPublishesCompletedBlocks(t *testing.T) {
	for _, k := range []int{1, 5, 16, 21} {
		data := make([]Word, 32*8)
		rng := rand.New(rand.NewSource(int64(k)))
		for i := range data {
			data[i] = rng.Uint64()
		}
		ref := referenceOutput(t, "sha256", data)

		in, _ := NewFifo[Word](512)
		out, _ := NewFifo[Word](512)
		in.PushSlice(data) // queued ahead of the engine, so batches are full
		e, err := Register(NewFaultAccel(NewSHA256(), FaultPlan{TerminalAfter: k}), in, out, WithBatch(16))
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, e)
		if e.Err() == nil {
			t.Fatalf("k=%d: engine exited without its terminal fault", k)
		}
		got := make([]Word, len(ref))
		n := out.TryPopInto(got)
		if n != 4*k {
			t.Fatalf("k=%d: %d words published, want %d", k, n, 4*k)
		}
		for i := 0; i < n; i++ {
			if got[i] != ref[i] {
				t.Fatalf("k=%d: word %d differs from the reference", k, i)
			}
		}
		if st := e.StatsDetail(); st.Blocks != uint64(k) || st.WordsOut != uint64(4*k) || st.Errors != 1 {
			t.Fatalf("k=%d: counters = %+v", k, st)
		}
	}
}

// TestTransientRetryMidBatchKeepsOrder: blocks retried in the middle of a
// batch land in stream order between their neighbours.
func TestTransientRetryMidBatchKeepsOrder(t *testing.T) {
	data := make([]Word, 24*8)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = rng.Uint64()
	}
	ref := referenceOutput(t, "sha256", data)
	in, _ := NewFifo[Word](256)
	out, _ := NewFifo[Word](256)
	in.PushSlice(data)
	in.Close()
	acc := NewFaultAccel(NewSHA256(), FaultPlan{
		Transient: []TransientFault{{Block: 3, Count: 2}, {Block: 4, Count: 1}, {Block: 15, Count: 1}},
	})
	e, err := Register(acc, in, out, WithBatch(8), WithRetry(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, e)
	if err := e.Err(); err != nil {
		t.Fatalf("engine parked: %v", err)
	}
	got := collect(t, out, 256)
	if len(got) != len(ref) {
		t.Fatalf("received %d words, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("word %d (block %d) out of order or wrong", i, i/4)
		}
	}
	if st := e.StatsDetail(); st.Retries != 4 || st.Recovered != 3 {
		t.Fatalf("retries=%d recovered=%d, want 4 and 3", st.Retries, st.Recovered)
	}
}

// TestChainedAESSHAMatchesUnchained: a keyed AES→SHA chain at batch 64 over
// a small intermediate queue (the AES stage publishes partial batches into
// it) equals encrypting and hashing block by block with the standard library.
func TestChainedAESSHAMatchesUnchained(t *testing.T) {
	key := []byte("0123456789abcdef")
	const blocks = 300 // SHA blocks; 4 AES blocks each
	plain := make([]byte, blocks*64)
	rand.New(rand.NewSource(17)).Read(plain)

	aesAcc := NewAES128()
	if err := aesAcc.Configure(key); err != nil {
		t.Fatal(err)
	}
	in, _ := NewFifo[Word](4096)
	out, _ := NewFifo[Word](64)
	engines, err := ChainWith(in, out, 32, []RegisterOption{WithBatch(64)}, aesAcc, NewSHA256())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		in.PushSlice(BytesToWords(plain))
		in.Close()
	}()
	got := WordsToBytes(collect(t, out, 64))
	for _, e := range engines {
		awaitDone(t, e)
	}

	ref, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	enc := make([]byte, len(plain))
	for i := 0; i < len(plain); i += 16 {
		ref.Encrypt(enc[i:], plain[i:])
	}
	var want []byte
	for i := 0; i < len(enc); i += 64 {
		sum := sha256.Sum256(enc[i : i+64])
		want = append(want, sum[:]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chained output differs from the unchained reference (%d vs %d bytes)", len(got), len(want))
	}
}
