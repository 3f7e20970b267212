package sched

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
	"cohort/internal/wire"
)

// miniEcho is a 4:4 accelerator whose sessions produce output — the coalesce
// clamp (at least one whole output block per frame) only binds when outW > 0.
type miniEcho struct{ out [4]uint64 }

func (m *miniEcho) Name() string           { return "mini" }
func (m *miniEcho) InWords() int           { return 4 }
func (m *miniEcho) OutWords() int          { return 4 }
func (m *miniEcho) Configure([]byte) error { return nil }
func (m *miniEcho) Process(in []uint64) ([]uint64, error) {
	copy(m.out[:], in)
	return m.out[:], nil
}

func waitBlocks(t *testing.T, ss *Session, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ss.Stats().Blocks < want {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d blocks served", ss.Stats().Blocks, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetuneBeforeAdmitGovernsQuantum: a Retune issued before any session
// exists governs the sessions admitted after it — a backlog drains in
// backlog/quantum scheduling quanta at the tuned value, not Config.Quantum,
// from the first boundary on — and an empty Retune restores the defaults.
func TestRetuneBeforeAdmitGovernsQuantum(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 128})
	defer s.Close()

	s.Retune(Knobs{Quantum: 32, CoalesceWords: 8192})
	var cnt atomic.Uint64
	ss, err := s.Register(SessionConfig{
		Tenant: "alice", Accel: &tallyAccel{mine: &cnt}, Weight: 1,
		In: backlog(t, 128, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitBlocks(t, ss, 64)
	if q := ss.Stats().Quanta; q != 2 {
		t.Fatalf("64 blocks drained in %d quanta, want 2 (tuned quantum 32, not config 8)", q)
	}

	s.Retune(Knobs{})
	if q, c := s.quantum.Load(), s.coalesce.Load(); q != 8 || c != wire.MaxFrameWords {
		t.Fatalf("knobs after reset = %d/%d, want config quantum 8 and %d", q, c, wire.MaxFrameWords)
	}
}

func TestRetuneClamps(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	ss, err := s.Register(SessionConfig{
		Tenant: "alice", Accel: &miniEcho{}, Weight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	before := s.retunes.Load()
	s.Retune(Knobs{
		Quantum:       maxTunedQuantum * 10,
		CoalesceWords: 2, // below one output block (outW = 4)
	})
	if q := s.quantum.Load(); q != maxTunedQuantum {
		t.Errorf("quantum clamped to %d, want %d", q, maxTunedQuantum)
	}
	if c := ss.coalesceCap(); c != 4 {
		t.Errorf("coalesce cap read as %d, want one output block (4)", c)
	}
	if got := s.retunes.Load(); got != before+1 {
		t.Errorf("retunes counter = %d, want %d", got, before+1)
	}

	s.Retune(Knobs{CoalesceWords: wire.MaxFrameWords * 3})
	if c := ss.coalesceCap(); c != wire.MaxFrameWords {
		t.Errorf("coalesce clamped to %d, want %d", c, wire.MaxFrameWords)
	}
}

// echoTally is a tallyAccel that returns each 1-word block as its output
// word and skips the busy loop: a stream whose order the test can check.
type echoTally struct {
	tallyAccel
	out [1]cohort.Word
}

func (a *echoTally) OutWords() int { return 1 }
func (a *echoTally) Process(in []cohort.Word) ([]cohort.Word, error) {
	a.tick()
	a.out[0] = in[0]
	return a.out[:], nil
}

// seqStream returns a closed input queue holding the words 0..n-1 and an
// output queue with room for all n results, so output room never clamps a
// quantum and the pump's pace cannot bend the block ratio.
func seqStream(t *testing.T, n int) (in, out *cohort.Fifo[cohort.Word]) {
	t.Helper()
	in, out = backlog(t, n, 0), backlog(t, n, 0)
	ws := make([]cohort.Word, n)
	for i := range ws {
		ws[i] = cohort.Word(i)
	}
	in.PushSlice(ws)
	in.Close()
	return in, out
}

// TestRetuneRacesServe: the knob pair retuned in a tight loop — quantum
// between 1 and maxTunedQuantum, coalesce between one block and a whole
// frame — while a 2:1-weighted pair streams through one worker and two
// result pumps. Every word must arrive in order, and the block ratio must
// hold TestWeightedFairness's 2.0 ± 10%. A quantum of maxTunedQuantum
// moves either tenant's virtual time by up to 4096 blocks at once, so the
// window is 7×40000 of alice's blocks instead of 7×500.
func TestRetuneRacesServe(t *testing.T) {
	const every = 40000
	var aCnt, bCnt atomic.Uint64
	snaps := make(chan uint64, 16)
	gate := make(chan struct{})
	accA := &echoTally{tallyAccel: tallyAccel{mine: &aCnt, other: &bCnt, every: every, snaps: snaps}}
	accB := &echoTally{tallyAccel: tallyAccel{mine: &bCnt, gate: gate}}
	// Alice takes her eighth snapshot at 8×every blocks; bob stays
	// backlogged past half of that plus a maximal quantum.
	nA, nB := 8*every, 5*every
	inA, outA := seqStream(t, nA)
	inB, outB := seqStream(t, nB)

	s := New(Config{Engines: 1, Quantum: 8})
	defer s.Close()
	b, err := s.Register(SessionConfig{Tenant: "bob", Accel: accB, Weight: 1, In: inB, Out: outB})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Register(SessionConfig{Tenant: "alice", Accel: accA, Weight: 2, In: inA, Out: outA})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var retuner sync.WaitGroup
	retuner.Add(1)
	go func() {
		defer retuner.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Retune(Knobs{Quantum: 1, CoalesceWords: 1})
			s.Retune(Knobs{Quantum: maxTunedQuantum, CoalesceWords: wire.MaxFrameWords})
		}
	}()
	sv := NewServer(s, nil)
	conns := []*writeRecorder{{}, {}}
	var pumps sync.WaitGroup
	for i, ss := range []*Session{a, b} {
		pumps.Add(1)
		go func(c *writeRecorder, ss *Session) {
			defer pumps.Done()
			sv.pumpResults(c, wire.NewWriter(c), ss, false, false)
		}(conns[i], ss)
	}
	close(gate)

	checkAliceBobRatio(t, snaps, every)
	close(stop)
	retuner.Wait()
	s.Retune(Knobs{}) // drain the rest in whole frames
	pumps.Wait()

	for i, want := range []int{nA, nB} {
		fr := wire.NewReader(bytes.NewReader(bytes.Join(conns[i].writes, nil)))
		next := 0
		for {
			typ, ws, _, err := fr.NextData()
			if err != nil {
				t.Fatalf("stream %d: %v after %d words", i, err, next)
			}
			if typ != wire.Data {
				if typ != wire.Done || next != want {
					t.Fatalf("stream %d ended with %v after %d words, want Done after %d", i, typ, next, want)
				}
				break
			}
			for _, w := range ws {
				if w != cohort.Word(next) {
					t.Fatalf("stream %d: word %d = %d, out of order", i, next, w)
				}
				next++
			}
		}
	}
}
