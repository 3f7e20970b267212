//go:build linux

package client_test

import (
	"testing"

	"cohort"
	"cohort/client"
)

// TestRingUnreadResultsCloseConn: a session whose Done has arrived but
// whose results are still partly in the ring is not finished, so Close
// closes its connection instead of keeping it, and the next session dials
// and sees none of the old words.
func TestRingUnreadResultsCloseConn(t *testing.T) {
	addr, ln := startCounting(t)
	c, err := client.Connect(addr, client.Options{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	if !client.Attached(c) {
		t.Fatal("the session did not attach")
	}
	in := make([]cohort.Word, 512)
	for i := range in {
		in[i] = cohort.Word(i) + 1
	}
	if c.Send(in) != nil || c.CloseSend() != nil {
		t.Fatal("send failed")
	}
	buf := make([]cohort.Word, 8)
	for got := 0; got < 64; {
		n, err := c.RecvInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	if res := c.Result(); res != nil {
		t.Fatalf("the session ended with %d words unread: %+v", len(in)-64, res)
	}
	c.Close()
	next := stream(t, addr)
	next.Close()
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("%d accepts, want 2: the half-read session's connection was kept", n)
	}
}
