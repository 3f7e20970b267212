package client_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"cohort"
	"cohort/client"
	"cohort/internal/wire"
)

// fakeServer answers every Open with a function of the test's choosing,
// and counts the Opens it has seen.
type fakeServer struct {
	ln    net.Listener
	addr  string
	opens atomic.Int64
}

func newFake(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &fakeServer{ln: ln, addr: ln.Addr().String()}
}

// serve answers every Open with answer, on connections kept while answer
// reports true.
func (fs *fakeServer) serve(t *testing.T, answer func(c *wire.Conn) bool) *fakeServer {
	set := wire.NewConnSet(errors.New("fake closed"))
	go set.Serve(fs.ln, func(c *wire.Conn, _ []byte) bool { //nolint:errcheck // returns its closed error
		fs.opens.Add(1)
		return answer(c)
	})
	t.Cleanup(func() { set.Close() })
	return fs
}

// redirectTo answers with a Redirect naming addrs and keeps the connection.
func redirectTo(addrs ...string) func(c *wire.Conn) bool {
	return func(c *wire.Conn) bool { return c.W.Redirect(addrs) == nil }
}

// deadAddr is an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRedirectsNeverChain: a Redirect from a redirect target fails the
// Connect as a refusal, after one Open at each of the two.
func TestRedirectsNeverChain(t *testing.T) {
	a, b := newFake(t), newFake(t)
	a.serve(t, redirectTo(b.addr))
	b.serve(t, redirectTo(a.addr))
	_, err := client.Connect(a.addr, client.Options{Tenant: "t", Accel: "null", Reconnect: 3})
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("Connect through chained redirects: %v, want ErrRejected", err)
	}
	if na, nb := a.opens.Load(), b.opens.Load(); na != 1 || nb != 1 {
		t.Fatalf("opens: %d at the first gateway, %d at the second, want 1 and 1", na, nb)
	}
}

// TestRedirectWalk: the client walks a Redirect's candidates past one it
// cannot dial to the first that admits the session, keeps the connection
// the Redirect came on, and stops at a terminal refusal without asking the
// next candidate.
func TestRedirectWalk(t *testing.T) {
	shard, shardLn := startCounting(t)
	spare, spareLn := startCounting(t)
	dead := deadAddr(t)
	gw := newFake(t).serve(t, redirectTo(dead, shard))
	for i := 0; i < 2; i++ {
		c := stream(t, gw.addr)
		if got := c.RemoteAddr(); got != shard {
			t.Fatalf("session landed on %s, want %s", got, shard)
		}
		c.Close()
	}
	if n := shardLn.accepts.Load(); n != 1 {
		t.Fatalf("two sessions took %d shard accepts, want 1", n)
	}

	refuser := newFake(t).serve(t, redirectTo(shard, spare))
	_, err := client.Connect(refuser.addr, client.Options{Tenant: "t", Accel: "no-such"})
	if !errors.Is(err, client.ErrRejected) || errors.Is(err, client.ErrAdmission) || errors.Is(err, client.ErrDraining) {
		t.Fatalf("unknown accelerator: %v, want a terminal ErrRejected", err)
	}
	if n := spareLn.accepts.Load(); n != 0 {
		t.Fatalf("a terminal refusal walked on: the next candidate accepted %d connections", n)
	}
}

// TestLostConnectionIsKilled: a connection lost before its final frame
// ends the session with ErrKilled, the typed signal to replay.
func TestLostConnectionIsKilled(t *testing.T) {
	fs := newFake(t).serve(t, func(c *wire.Conn) bool {
		c.W.OpenOK(wire.OpenReply{Session: 1, InWords: 1, OutWords: 1})
		return false // the handler closes the connection
	})
	c, err := client.Connect(fs.addr, client.Options{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RecvInto(make([]cohort.Word, 1)); !errors.Is(err, client.ErrKilled) {
		t.Fatalf("RecvInto on a lost connection: %v, want ErrKilled", err)
	}
}
