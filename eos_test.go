package cohort

import (
	"sync"
	"testing"
	"time"
)

// TestFifoCloseSemantics pins the end-of-stream contract: Close is
// idempotent, queued elements survive the close, Drained flips only once the
// consumer has taken everything, and pushing after Close panics.
func TestFifoCloseSemantics(t *testing.T) {
	q, err := NewFifo[int](8)
	if err != nil {
		t.Fatal(err)
	}
	q.Push(1)
	q.Push(2)
	q.Close()
	q.Close() // idempotent
	if !q.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if q.Drained() {
		t.Fatal("Drained() = true with 2 elements queued")
	}
	if v := q.Pop(); v != 1 {
		t.Fatalf("Pop = %d, want 1", v)
	}
	if q.Drained() {
		t.Fatal("Drained() = true with 1 element queued")
	}
	if v := q.Pop(); v != 2 {
		t.Fatalf("Pop = %d, want 2", v)
	}
	if !q.Drained() {
		t.Fatal("Drained() = false on a closed empty queue")
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop succeeded on a drained queue")
	}

	for name, push := range map[string]func(){
		"TryPush":       func() { q.TryPush(3) },
		"TryPushSlice":  func() { q.TryPushSlice([]int{3}) },
		"WriteSegments": func() { q.WriteSegments() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			push()
		}()
	}
}

// TestEngineDrainsOnClose: closing the input queue makes the engine finish
// every complete block, drop the trailing partial words, propagate the close
// to its output queue, and exit on its own — no Unregister required.
func TestEngineDrainsOnClose(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, err := Register(NewSHA256(), in, out) // 8 words in, 4 out
	if err != nil {
		t.Fatal(err)
	}
	// Two complete blocks plus a 3-word partial that must be dropped.
	in.PushSlice(make([]Word, 2*8+3))
	in.Close()

	select {
	case <-e.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not exit after input close")
	}
	got := make([]Word, 0, 8)
	for {
		v, ok := out.TryPop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2*4 {
		t.Fatalf("drained %d output words, want 8", len(got))
	}
	if !out.Drained() {
		t.Fatal("output queue not closed after engine EOS")
	}
	s := e.StatsDetail()
	if s.Blocks != 2 || s.DroppedWords != 3 {
		t.Fatalf("stats blocks=%d dropped=%d, want 2 and 3", s.Blocks, s.DroppedWords)
	}
	e.Unregister() // still fine after a self-exit
}

// TestChainPropagatesEOS: a Close on the chain's head input cascades through
// every stage — each engine closes its output as it drains — until the tail
// output reports Drained.
func TestChainPropagatesEOS(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	engines, err := Chain(in, out, 64, NewAES128(), NewSHA256())
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 4
	in.PushSlice(make([]Word, blocks*8))
	in.Close()
	for i, e := range engines {
		select {
		case <-e.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("stage %d did not exit after upstream close", i)
		}
	}
	n := 0
	for {
		if _, ok := out.TryPop(); !ok {
			break
		}
		n++
	}
	if n != blocks*4 {
		t.Fatalf("tail produced %d words, want %d", n, blocks*4)
	}
	if !out.Drained() {
		t.Fatal("tail output not drained after cascade")
	}
}

// TestEngineDrainsOnCloseTraced: the traced loop takes the same EOS path.
func TestEngineDrainsOnCloseTraced(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, err := Register(NewNull(), in, out, WithFlightRecorder(NewFlightRecorder(4096), "null"))
	if err != nil {
		t.Fatal(err)
	}
	in.PushSlice([]Word{1, 2, 3})
	in.Close()
	select {
	case <-e.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("traced engine did not exit after input close")
	}
	if !out.Closed() {
		t.Fatal("traced engine did not close its output")
	}
}

// TestUnregisterConcurrentIdempotent: Unregister is safe and idempotent under
// concurrent callers — every call returns, exactly once the engine stops.
func TestUnregisterConcurrentIdempotent(t *testing.T) {
	in, _ := NewFifo[Word](16)
	out, _ := NewFifo[Word](16)
	e, err := Register(NewNull(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Unregister()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Unregister callers did not all return")
	}
}
