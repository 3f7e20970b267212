package cohort

// An idle engine parks on its bell: in's push bell and out's pop bell. These
// tests pin that it makes no polls while parked, that it wakes on every
// publication it waits for (a lost wakeup hangs them), and that it owns the
// two bells only while it runs.

import (
	"runtime"
	"testing"
)

// awaitParks yields until e has parked at least n times.
func awaitParks(e *Engine, n uint64) {
	for e.StatsDetail().BackoffSleeps < n {
		runtime.Gosched()
	}
}

// TestEngineParkedDoesNotPoll: an engine on an empty queue polls it once,
// parks, and polls again only when the close wakes it — however long it sat
// idle in between.
func TestEngineParkedDoesNotPoll(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, err := Register(NewNull(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	awaitParks(e, 1)
	// Idle stretch: a polling engine would fail thousands of pops here.
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	in.Close()
	<-e.Done()
	if got := in.Stats().PopStalls; got > 2 {
		t.Fatalf("idle engine made %d empty polls, want at most 2", got)
	}
	if got := e.StatsDetail().BackoffSleeps; got < 1 {
		t.Fatalf("parks = %d, want at least 1", got)
	}
}

// TestEngineParkWakesOnPush: a parked engine wakes on each push, and
// Unregister stops a parked engine (nothing else would wake it).
func TestEngineParkWakesOnPush(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)
	e, err := Register(NewNull(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		awaitParks(e, round+1)
		in.Push(Word(round))
		if got := out.Pop(); got != Word(round) {
			t.Fatalf("round %d: got %d", round, got)
		}
	}
	awaitParks(e, 4)
	e.Unregister()
}

// TestEngineParkBellOwnership: Register refuses a queue side that already has
// a bell, and every way an engine ends hands its bells back.
func TestEngineParkBellOwnership(t *testing.T) {
	in, _ := NewFifo[Word](64)
	out, _ := NewFifo[Word](64)

	// A sched session's queues carry both of these bells.
	in.OnPush(NewBell())
	if _, err := Register(NewNull(), in, out); err == nil {
		t.Fatal("Register took an input queue with a push bell")
	}
	in.OnPush(nil)
	out.OnPop(NewBell())
	if _, err := Register(NewNull(), in, out); err == nil {
		t.Fatal("Register took an output queue with a pop bell")
	}
	// The failed Register must not keep in's push bell, nor a chain that
	// fails at its last stage its first stage's.
	if _, err := ChainWith(in, out, 8, nil, NewNull(), NewNull()); err == nil {
		t.Fatal("ChainWith took an output queue with a pop bell")
	}
	out.OnPop(nil)

	register := func(acc Accelerator) *Engine {
		t.Helper()
		e, err := Register(acc, in, out)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	register(NewNull()).Unregister()

	// A terminal fault at the second block.
	e := register(NewFaultAccel(NewNull(), FaultPlan{TerminalAfter: 1}))
	in.PushSlice([]Word{1, 2})
	<-e.Done()
	if e.Err() == nil {
		t.Fatal("faulting engine exited without an error")
	}

	// A drained end of stream (the last Register: in stays closed).
	e = register(NewNull())
	in.Close()
	<-e.Done()
	register(NewNull()).Unregister()
}

// TestEngineParkChainTinyQueues: with every queue one block deep, each stage
// of the chain parks on an empty input and on a full output over and over.
// A lost wakeup in either park hangs the test.
func TestEngineParkChainTinyQueues(t *testing.T) {
	const words = 100_000
	in, _ := NewFifo[Word](1)
	out, _ := NewFifo[Word](1)
	engines, err := ChainWith(in, out, 1, nil, NewNull(), NewNull(), NewNull())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < words; i++ {
			in.Push(Word(i))
		}
		in.Close()
	}()
	var buf [1]Word
	next := Word(0)
	for {
		if out.TryPopInto(buf[:]) == 0 {
			if out.Drained() {
				break
			}
			runtime.Gosched()
			continue
		}
		if buf[0] != next {
			t.Fatalf("word %d = %d", next, buf[0])
		}
		next++
	}
	if next != words {
		t.Fatalf("%d words through the chain, want %d", next, words)
	}
	for i, e := range engines {
		<-e.Done()
		if st := e.StatsDetail(); st.BackoffSleeps == 0 {
			t.Errorf("stage %d never parked", i)
		}
	}
}
