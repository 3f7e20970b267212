package sched

import (
	"sync/atomic"
	"testing"
	"time"

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

// TestRetuneAllAdmitInheritanceAndQuantumBoundary: a RetuneAll issued before
// any session exists becomes the admission default; a session admitted after
// it inherits the tuned quantum, and its backlog drains in backlog/quantum
// scheduling quanta — the tuned value, not Config.Quantum, governed every
// dispatch from the first boundary on.
func TestRetuneAllAdmitInheritanceAndQuantumBoundary(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 128})
	defer s.Close()

	if n := s.RetuneAll(Knobs{Quantum: 32, CoalesceWords: 8192}); n != 0 {
		t.Fatalf("RetuneAll with no sessions retuned %d", n)
	}
	if ak := s.AdmitKnobs(); ak.Quantum != 32 || ak.CoalesceWords != 8192 {
		t.Fatalf("admit knobs = %+v, want quantum 32, coalesce 8192", ak)
	}

	var cnt atomic.Uint64
	ss, err := s.Register(SessionConfig{
		Tenant: "alice", Accel: &tallyAccel{mine: &cnt}, Weight: 1,
		In: backlog(t, 128, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := ss.Knobs(); k.Quantum != 32 || k.CoalesceWords != 8192 {
		t.Fatalf("admitted session knobs = %+v, want inherited {32, 8192}", k)
	}
	waitBlocks(t, ss, 64)
	if q := ss.Stats().Quanta; q != 2 {
		t.Fatalf("64 blocks drained in %d quanta, want 2 (tuned quantum 32, not config 8)", q)
	}

	rows := s.Sessions()
	if len(rows) != 1 || rows[0].Tuned == nil || rows[0].Tuned.Quantum != 32 {
		t.Fatalf("sessions rows = %+v, want one row with Tuned.Quantum=32", rows)
	}

	// Reset restores the config default and the /sessions column disappears.
	if !s.Retune(ss.ID(), Knobs{Quantum: -1, CoalesceWords: -1}) {
		t.Fatal("Retune on live session reported not found")
	}
	if k := ss.Knobs(); k != (Knobs{}) {
		t.Fatalf("knobs after reset = %+v, want zero", k)
	}
	if rows := s.Sessions(); rows[0].Tuned != nil {
		t.Fatalf("Tuned column after reset = %+v, want omitted", rows[0].Tuned)
	}
	if got := ss.effQuantum(8); got != 8 {
		t.Fatalf("effQuantum after reset = %d, want config default 8", got)
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
	s.Retune(ss.ID(), Knobs{
		Quantum:       maxTunedQuantum * 10,
		CoalesceWords: 2, // below one output block (outW = 4)
		BatchWords:    wire.MaxFrameWords * 2,
	})
	k := ss.Knobs()
	if k.Quantum != maxTunedQuantum {
		t.Errorf("quantum clamped to %d, want %d", k.Quantum, maxTunedQuantum)
	}
	if k.CoalesceWords != 4 {
		t.Errorf("coalesce clamped to %d, want one output block (4)", k.CoalesceWords)
	}
	if k.BatchWords != wire.MaxFrameWords {
		t.Errorf("batch clamped to %d, want %d", k.BatchWords, wire.MaxFrameWords)
	}
	if got := s.retunes.Load(); got != before+1 {
		t.Errorf("retunes counter = %d, want %d", got, before+1)
	}

	s.Retune(ss.ID(), Knobs{CoalesceWords: wire.MaxFrameWords * 3})
	if k := ss.Knobs(); k.CoalesceWords != wire.MaxFrameWords {
		t.Errorf("coalesce clamped to %d, want %d", k.CoalesceWords, wire.MaxFrameWords)
	}

	if s.Retune(ss.ID()+999, Knobs{Quantum: 16}) {
		t.Error("Retune on unknown session id reported success")
	}
}

// TestBatchFloorNeverExceedsCoalesce: the pump clamps the flush floor to the
// live coalesce cap on every pass, so the two knobs can be retuned in either
// order without creating a floor the cap forbids reaching (which would park
// the pump for its full 2ms bound on every frame).
func TestBatchFloorNeverExceedsCoalesce(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	ss, err := s.Register(SessionConfig{
		Tenant: "alice", Accel: &miniEcho{}, Weight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Retune(ss.ID(), Knobs{BatchWords: 5000})
	s.Retune(ss.ID(), Knobs{CoalesceWords: 100})
	if f := ss.batchFloor(ss.coalesceCap()); f != 100 {
		t.Fatalf("effective floor = %d, want clamp to coalesce cap 100", f)
	}
	// Raising the cap back re-exposes the full floor — nothing was lost.
	s.Retune(ss.ID(), Knobs{CoalesceWords: 8192})
	if f := ss.batchFloor(ss.coalesceCap()); f != 5000 {
		t.Fatalf("floor after cap raise = %d, want 5000", f)
	}
	// Keep (0) leaves knobs alone; merge semantics on the admit set too.
	s.RetuneAll(Knobs{BatchWords: 0, CoalesceWords: 0, Quantum: 16})
	if k := ss.Knobs(); k.BatchWords != 5000 || k.CoalesceWords != 8192 || k.Quantum != 16 {
		t.Fatalf("knobs after keep-merge = %+v, want {16, 8192, 5000}", k)
	}
}
