package sched

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
)

// miniEcho is a 4:4 accelerator whose sessions produce output.
type miniEcho struct{ out [4]uint64 }

func (m *miniEcho) Name() string           { return "mini" }
func (m *miniEcho) InWords() int           { return 4 }
func (m *miniEcho) OutWords() int          { return 4 }
func (m *miniEcho) Configure([]byte) error { return nil }
func (m *miniEcho) Process(in []uint64) ([]uint64, error) {
	copy(m.out[:], in)
	return m.out[:], nil
}

// parkQuiet waits (up to a second) for a 20ms window in which no worker
// makes a scheduling-loop pass, and reports whether one came. Workers that
// park on the pool's bell go quiet within a pass or two of running out of
// work; a worker polling on a timer never does.
func parkQuiet(s *Scheduler) bool {
	snap := func() []uint64 {
		ops := make([]uint64, len(s.workerOps))
		for i := range s.workerOps {
			ops[i] = s.workerOps[i].Load()
		}
		return ops
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		before := snap()
		time.Sleep(20 * time.Millisecond)
		after := snap()
		quiet := true
		for i := range before {
			if after[i] != before[i] {
				quiet = false
			}
		}
		if quiet {
			return true
		}
	}
	return false
}

// TestParkedWorkersDoNotPoll: once the last session retires, the pool parks
// on its bell — no worker makes another loop pass, so nothing polls.
func TestParkedWorkersDoNotPoll(t *testing.T) {
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 64})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "once", Accel: &miniEcho{}})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 32))
	ss.CloseSend()
	if got := drain(t, ss); len(got) != 32 {
		t.Fatalf("received %d words, want 32", len(got))
	}
	if !parkQuiet(s) {
		t.Fatal("workers kept making loop passes with no session live: the pool polls")
	}
}

// TestParkedPoolWakesOnDirectPush: after the pool has parked, words pushed
// straight into Session.In by an in-process producer — no server, no kick —
// wake a worker through the queue's doorbell, are served, and CloseSend
// retires the session.
func TestParkedPoolWakesOnDirectPush(t *testing.T) {
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 64})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "direct", Accel: &miniEcho{}})
	if err != nil {
		t.Fatal(err)
	}
	if !parkQuiet(s) {
		t.Fatal("pool never parked")
	}
	in := []cohort.Word{1, 2, 3, 4, 5, 6, 7, 8}
	ss.In().PushSlice(in)
	got := make([]cohort.Word, 0, len(in))
	buf := make([]cohort.Word, len(in))
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < len(in) {
		if time.Now().After(deadline) {
			t.Fatalf("parked pool served %d of %d words pushed without a kick", len(got), len(in))
		}
		if n := ss.Out().TryPopInto(buf); n > 0 {
			got = append(got, buf[:n]...)
			continue
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i, w := range got {
		if w != in[i] {
			t.Fatalf("word %d = %d, want %d", i, w, in[i])
		}
	}
	ss.CloseSend()
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done did not close after CloseSend on a parked pool")
	}
	if err := ss.Err(); err != nil {
		t.Fatalf("session retired with %v, want a clean finish", err)
	}
}

// meetAccel's first block waits until a second instance sharing its
// counter is inside Process too: the two sessions' first blocks run only if
// two workers serve them at once.
type meetAccel struct {
	inside *atomic.Int32
	met    bool
	out    [1]cohort.Word
}

func (a *meetAccel) Name() string               { return "meet" }
func (a *meetAccel) InWords() int               { return 1 }
func (a *meetAccel) OutWords() int              { return 1 }
func (a *meetAccel) Configure(csr []byte) error { return nil }
func (a *meetAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	if !a.met {
		a.inside.Add(1)
		deadline := time.Now().Add(2 * time.Second)
		for a.inside.Load() < 2 {
			if time.Now().After(deadline) {
				return nil, errors.New("no second worker joined")
			}
			time.Sleep(50 * time.Microsecond)
		}
		a.met = true
	}
	a.out[0] = in[0]
	return a.out[:], nil
}

// TestParkedPoolWakesAWorkerPerSession: two sessions turning runnable back
// to back wake both parked workers, which serve them at once — the pool's
// one bell does not serialize the pool.
func TestParkedPoolWakesAWorkerPerSession(t *testing.T) {
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 16})
	defer s.Close()
	var inside atomic.Int32
	var sessions [2]*Session
	for i := range sessions {
		ss, err := s.Register(SessionConfig{Tenant: "meet", Accel: &meetAccel{inside: &inside}})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = ss
	}
	if !parkQuiet(s) {
		t.Fatal("pool never parked")
	}
	for _, ss := range sessions {
		ss.In().TryPush(7)
	}
	// No CloseSend until both results are out: its ring would wake the
	// second worker by itself.
	buf := make([]cohort.Word, 1)
	for _, ss := range sessions {
		deadline := time.Now().Add(5 * time.Second)
		for ss.Out().TryPopInto(buf) == 0 {
			if err := ss.Err(); err != nil {
				t.Fatalf("session retired with %v: one parked worker stayed asleep", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("no result")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, ss := range sessions {
		ss.CloseSend()
		<-ss.Done()
		if err := ss.Err(); err != nil {
			t.Fatalf("session retired with %v", err)
		}
	}
}

// TestParkEngineRefusesSessionQueues: a session's queues carry the pool's
// bells, so a native engine cannot be registered on either side of them.
func TestParkEngineRefusesSessionQueues(t *testing.T) {
	s := New(Config{Engines: 1})
	defer s.Close()
	in, _ := cohort.NewFifo[cohort.Word](64)
	out, _ := cohort.NewFifo[cohort.Word](64)
	if _, err := s.Register(SessionConfig{Tenant: "t", Accel: cohort.NewNull(), In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	other, _ := cohort.NewFifo[cohort.Word](64)
	if _, err := cohort.Register(cohort.NewNull(), in, other); err == nil {
		t.Fatal("an engine took a session's input queue")
	}
	if _, err := cohort.Register(cohort.NewNull(), other, out); err == nil {
		t.Fatal("an engine took a session's output queue")
	}
}
