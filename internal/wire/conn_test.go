package wire

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// openServer listens on loopback and counts the connections it accepts. It
// closes the first refuse of them at once and answers every Open on the
// rest with an OpenOK.
func openServer(t *testing.T, refuse int64) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if accepts.Add(1) <= refuse {
				c.Close()
				continue
			}
			go func() {
				defer c.Close()
				fc := NewConn(c)
				for {
					if t, _, err := fc.R.Next(); err != nil || t != Open {
						return
					}
					if fc.W.OpenOK(OpenReply{Session: 1}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &accepts
}

// closeRecorder is a connection that records whether it was closed.
type closeRecorder struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeRecorder) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// deadConn is a kept connection to addr whose far end has already closed.
func deadConn(addr string) (*Conn, *closeRecorder) {
	near, far := net.Pipe()
	far.Close()
	rec := &closeRecorder{Conn: near}
	c := NewConn(rec)
	c.addr = addr
	return c, rec
}

func testOpen(t *testing.T) []byte {
	t.Helper()
	p, err := AppendOpen(nil, &OpenRequest{Tenant: "t", Accel: "null", Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRedialKeptConnectionOnce: a kept connection that fails before the
// reply is closed and its address dialled exactly once more, inside the
// same Open; when that fresh connection fails too, Open returns its error.
func TestRedialKeptConnectionOnce(t *testing.T) {
	open := testOpen(t)
	for _, tc := range []struct {
		name   string
		refuse int64
		ok     bool
	}{
		{"fresh-answers", 0, true},
		{"fresh-fails", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepts := openServer(t, tc.refuse)
			var p Pool
			dead, near := deadConn(addr)
			p.Put(dead)
			c, typ, _, err := p.Open(addr, time.Second, open)
			if (err == nil) != tc.ok {
				t.Fatalf("Open err = %v, want success %v", err, tc.ok)
			}
			if tc.ok && (c == dead || typ != OpenOK) {
				t.Fatalf("Open = %v on the dead connection %v, want an OpenOK on a fresh one", typ, c == dead)
			}
			if n := accepts.Load(); n != 1 {
				t.Fatalf("%d dials, want 1", n)
			}
			if !near.closed.Load() {
				t.Fatal("Open left the dead kept connection open")
			}
			if p.Pop(addr) != nil {
				t.Fatal("Open left a connection on the idle stack")
			}
		})
	}
}

// TestNoRedialOfFreshConnection: a fresh connection that fails — its dial
// refused, or the far end closing before the reply — returns its error
// without another dial.
func TestNoRedialOfFreshConnection(t *testing.T) {
	open := testOpen(t)
	addr, accepts := openServer(t, 3)
	var p Pool
	if _, _, _, err := p.Open(addr, time.Second, open); err == nil {
		t.Fatal("Open succeeded on a connection closed before its reply")
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("%d dials, want 1", n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	ln.Close()
	if _, _, _, err := p.Open(gone, time.Second, open); err == nil {
		t.Fatal("Open succeeded with nothing listening")
	}
}

// TestQuiesceClosesIdleAndWaitsForBusy: Quiesce closes a connection idle
// between sessions at once, leaves one carrying a session alone, and
// returns once that session ends — closing its connection then, since it
// went idle after the quiesce.
func TestQuiesceClosesIdleAndWaitsForBusy(t *testing.T) {
	errClosed := errors.New("closed")
	set := NewConnSet(errClosed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release, busy := make(chan struct{}), make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- set.Serve(ln, func(c *Conn, open []byte) bool {
			if tenant, _, _ := OpenTenant(open); tenant == "busy" {
				close(busy)
				<-release
			}
			return c.W.OpenOK(OpenReply{}) == nil
		})
	}()
	dial := func(tenant string) *Conn {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		c := NewConn(nc)
		if err := writeOpen(c.W, &OpenRequest{Tenant: tenant, Accel: "null", Reuse: true}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	idle := dial("idle")
	if typ, _, err := idle.R.Next(); err != nil || typ != OpenOK {
		t.Fatalf("idle session reply = %v %v, want open-ok", typ, err)
	}
	busyConn := dial("busy")
	<-busy

	quiesced := make(chan bool, 1)
	go func() { quiesced <- set.Quiesce(time.Hour) }()
	idle.SetReadDeadline(time.Now().Add(10 * time.Second)) // a guard, not a measurement
	if _, _, err := idle.R.Next(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle connection not closed by Quiesce: read err %v", err)
	}
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a session was still being served")
	default:
	}
	close(release)
	if typ, _, err := busyConn.R.Next(); err != nil || typ != OpenOK {
		t.Fatalf("busy session reply = %v %v, want open-ok", typ, err)
	}
	if _, _, err := busyConn.R.Next(); err == nil {
		t.Fatal("read a frame after the busy session went idle under Quiesce")
	}
	if !<-quiesced {
		t.Fatal("Quiesce timed out")
	}
	if err := <-served; err != errClosed {
		t.Fatalf("Serve returned %v, want the set's closed error", err)
	}
}

// TestReuseRuleTable: KeepsConn over every way a streaming session can end
// (DESIGN.md §4): only a reuse Open whose CloseSend went through and whose
// final frame is a Done with no Code keeps its connection.
func TestReuseRuleTable(t *testing.T) {
	clean := &DoneReply{Blocks: 4}
	for _, c := range []struct {
		name             string
		reuse, closeSent bool
		done             *DoneReply
		want             bool
	}{
		{"clean done", true, true, clean, true},
		{"clean done with timing", true, true, &DoneReply{Timing: &TelemetryReply{}}, true},
		{"no reuse flag", false, true, clean, false},
		{"no close-send", true, false, clean, false},
		{"quota", true, true, &DoneReply{Err: "quota", Code: CodeQuota}, false},
		{"shutdown", true, true, &DoneReply{Err: "closed", Code: CodeClosed}, false},
		{"error, kill or fault", true, true, nil, false},
		{"results left unread", true, true, nil, false},
		{"connection lost", true, false, nil, false},
	} {
		if got := KeepsConn(c.reuse, c.closeSent, c.done); got != c.want {
			t.Errorf("%s: KeepsConn = %v, want %v", c.name, got, c.want)
		}
	}
}
