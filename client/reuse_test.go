package client_test

import (
	"io"
	"net"
	"sync/atomic"
	"testing"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
)

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// startCounting serves a scheduler with the default catalog and counts
// the connections it accepts.
func startCounting(t *testing.T) (string, *countingListener) {
	t.Helper()
	s := sched.New(sched.Config{Engines: 1, Quantum: 64, QueueCap: 1024})
	sv := sched.NewServer(s, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go sv.Serve(cl) //nolint:errcheck // returns ErrServerClosed on stop
	t.Cleanup(func() {
		sv.Close()
		s.Close()
	})
	return ln.Addr().String(), cl
}

func stream(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Connect(addr, client.Options{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	in := []cohort.Word{1, 2, 3, 4}
	out, res, err := c.Stream(in)
	if err != nil || len(out) != len(in) || res == nil || res.Code != "" {
		t.Fatalf("stream = %v %+v %v, want %d words and a clean Done", out, res, err, len(in))
	}
	return c
}

// TestIdleConnRefusesLateUse: once Close has kept a connection for the next
// session, the Conn that left it can no longer write to it, a second Close
// does nothing, and the next session on the connection runs clean.
func TestIdleConnRefusesLateUse(t *testing.T) {
	addr, ln := startCounting(t)
	c := stream(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if c.Send([]cohort.Word{9}) == nil || c.CloseSend() == nil {
		t.Fatal("a Conn wrote to the connection it had given up")
	}
	if _, err := c.RecvInto(make([]cohort.Word, 1)); err != io.EOF {
		t.Fatalf("RecvInto after Close = %v, want EOF", err)
	}
	stream(t, addr).Close()
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("two sessions took %d accepts, want 1", n)
	}
}

// TestReuseCloseDuringRecv: a Close from another goroutine while Recv waits
// (a caller's watchdog) closes the connection rather than keeping it, and a
// later Close does nothing.
func TestReuseCloseDuringRecv(t *testing.T) {
	addr, ln := startCounting(t)
	c, err := client.Connect(addr, client.Options{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	recvd := make(chan error, 1)
	go func() {
		_, err := c.Recv() // no Send: nothing comes back until Close
		recvd <- err
	}()
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	if err := <-recvd; err == nil {
		t.Fatal("Recv returned words from an empty session")
	}
	<-closed
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	stream(t, addr).Close()
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("a session after a closed one took %d accepts in all, want 2", n)
	}
}
