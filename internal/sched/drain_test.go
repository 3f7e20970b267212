package sched

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
)

// drainDeadline bounds every wait in this file; a drain that has not
// completed in this long on a loopback scheduler is a real bug.
const drainDeadline = 5 * time.Second

// TestDrainRejectsNewSessions: after Drain, Register fails with ErrDraining
// while the in-flight session keeps its place; the status document tracks
// the rejection.
func TestDrainRejectsNewSessions(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()

	var cnt atomic.Uint64
	ss, err := s.Register(SessionConfig{Tenant: "live", Accel: &tallyAccel{mine: &cnt}})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, err := s.Register(SessionConfig{Tenant: "late", Accel: &tallyAccel{mine: &cnt}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Register during drain: err = %v, want ErrDraining", err)
	}
	ds := s.DrainStatus()
	if !ds.Draining || ds.Drained || ds.Live != 1 || ds.Rejected != 1 {
		t.Fatalf("DrainStatus = %+v, want draining, 1 live, 1 rejected", ds)
	}
	// The in-flight session is untouched: it still completes its stream.
	ss.In().TryPushSlice(make([]cohort.Word, 16))
	ss.CloseSend()
	select {
	case <-ss.Done():
	case <-time.After(drainDeadline):
		t.Fatal("in-flight session did not retire during drain")
	}
	if err := ss.Err(); err != nil {
		t.Fatalf("in-flight session retired with err %v, want clean finish", err)
	}
	if got := ss.Stats().Blocks; got != 16 {
		t.Fatalf("in-flight session completed %d blocks during drain, want 16", got)
	}
}

// TestDrainBarrier: Drained() closes exactly when the last live session
// retires — the rolling-restart barrier — and Drain is idempotent.
func TestDrainBarrier(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()

	var cnt atomic.Uint64
	ss, err := s.Register(SessionConfig{Tenant: "flush", Accel: &tallyAccel{mine: &cnt}})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Drain() // idempotent
	select {
	case <-s.Drained():
		t.Fatal("Drained closed while a session is still live")
	case <-time.After(20 * time.Millisecond):
	}
	ss.In().TryPushSlice(make([]cohort.Word, 8))
	ss.CloseSend()
	select {
	case <-s.Drained():
	case <-time.After(drainDeadline):
		t.Fatal("Drained did not close after the last session retired")
	}
	ds := s.DrainStatus()
	if !ds.Draining || !ds.Drained || ds.Live != 0 {
		t.Fatalf("DrainStatus after barrier = %+v, want drained with 0 live", ds)
	}
}

// TestDrainEmptyScheduler: draining an idle scheduler completes immediately,
// and Close always releases drain waiters even without a Drain call.
func TestDrainEmptyScheduler(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(drainDeadline):
		t.Fatal("Drained did not close on an idle scheduler")
	}
	s.Close()

	// Close without Drain must also release waiters — a shutdown path that
	// skipped drain mode must not strand a goroutine parked on the barrier.
	s2 := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	s2.Close()
	select {
	case <-s2.Drained():
	case <-time.After(drainDeadline):
		t.Fatal("Drained did not close on Close")
	}
}

// TestQuiesceLeavesActiveHandlersAlone: Quiesce stops the accept loop and
// reports whether handlers finished, but never force-closes a connection —
// that is Close's job. The distinction is what lets a draining daemon flush
// final Done frames: retirement (scheduler) and flush (wire) are separate
// barriers.
func TestQuiesceLeavesActiveHandlersAlone(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	sv := NewServer(s, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- sv.Serve(ln) }()

	// An idle connection: the handler is parked reading the Open frame.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(10 * time.Millisecond) // let the handler start

	if sv.Quiesce(50 * time.Millisecond) {
		t.Fatal("Quiesce reported idle with a live handler")
	}
	// The connection must still be open: a read times out, it does not EOF.
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on quiesced server conn: err = %v, want deadline exceeded (conn alive)", err)
	}
	// Serve has returned cleanly (accept loop stopped)...
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(drainDeadline):
		t.Fatal("Serve did not return after Quiesce")
	}
	// ...and Close force-closes the straggler.
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(drainDeadline))
	if _, err := c.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after Close: err = %v, want closed connection", err)
	}
}
