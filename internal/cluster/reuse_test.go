package cluster_test

// Gateway→shard leg reuse, checked by counting the connections each shard
// accepts. A session's client sees its Done only after the gateway has
// settled the leg, so a client that opens its next session on receipt meets
// a deterministic leg state: no sleeps and no wall-clock asserts.

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// countingListener counts the connections a shard accepts.
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

func listenCounting(t *testing.T, addr string) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: ln}
}

// restartWire replaces the shard's wire server with a fresh one on the same
// address, as a restarted cohortd would be. Its idle gateway legs die with
// the old server.
func (sp *shardProc) restartWire(t *testing.T) {
	t.Helper()
	sp.sv.Close()
	sp.ln = listenCounting(t, sp.wire)
	sp.sv = sched.NewServer(sp.s, nil)
	go sp.sv.Serve(sp.ln) //nolint:errcheck // returns ErrServerClosed on stop
}

// cleanSession runs one echo session through addr and fails the test unless
// it returns every word with a clean Done.
func cleanSession(t *testing.T, addr, tenant string) {
	t.Helper()
	c, err := client.Connect(addr, client.Options{Tenant: tenant, Accel: "null"})
	if err != nil {
		t.Fatalf("connect %s: %v", tenant, err)
	}
	defer c.Close()
	in := testWords(32)
	out, res, err := c.Stream(in)
	if err != nil {
		t.Fatalf("stream %s: %v", tenant, err)
	}
	assertEcho(t, in, out)
	if res == nil || res.Err != "" || res.Code != "" || res.Blocks != 32 {
		t.Fatalf("result %+v, want 32 clean blocks", res)
	}
}

func wantAccepts(t *testing.T, sp *shardProc, want int64, after string) {
	t.Helper()
	if n := sp.ln.accepts.Load(); n != want {
		t.Fatalf("after %s: shard %s accepted %d connections, want %d", after, sp.name, n, want)
	}
}

func wantIdle(t *testing.T, f *fleet, sp *shardProc, want int, after string) {
	t.Helper()
	if n := f.gw.IdleLegs(sp.name); n != want {
		t.Fatalf("after %s: gateway holds %d idle legs to %s, want %d", after, n, sp.name, want)
	}
}

// TestGatewayReusesShardLeg: sequential clean sessions through the gateway
// share one shard leg — 50 sessions, one accept.
func TestGatewayReusesShardLeg(t *testing.T) {
	f := startFleet(t, 1)
	for i := 0; i < 50; i++ {
		cleanSession(t, f.gwWire, "seq")
	}
	wantAccepts(t, f.shards[0], 1, "50 sequential sessions")
}

// TestGatewayRedialsAfterUncleanEnd: a session that ends in an Error, a kill
// or a quota retire does not leave its leg for the next session, which
// dials a new one. The gateway parks only the legs the shard keeps, so none
// of these endings leaves a dead leg on the idle stack.
func TestGatewayRedialsAfterUncleanEnd(t *testing.T) {
	f := startFleet(t, 1)
	sp := f.shards[0]
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 1, "a clean session")
	wantIdle(t, f, sp, 1, "a clean session")

	// Error: the shard refuses the Open on the idle leg and closes it.
	if _, err := client.Connect(f.gwWire, client.Options{Tenant: "t", Accel: "no-such"}); err == nil {
		t.Fatal("unknown accelerator admitted")
	}
	wantIdle(t, f, sp, 0, "an Error")
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 2, "an Error")

	// Kill: the session dies mid-stream on the shard.
	c, err := client.Connect(f.gwWire, client.Options{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(testWords(8)); err != nil {
		t.Fatal(err)
	}
	if !sp.s.Kill(c.Session()) {
		t.Fatalf("session %d not live on the shard", c.Session())
	}
	if _, _, err := c.Stream(nil); err == nil {
		t.Fatal("killed session ended without an error")
	}
	c.Close()
	wantIdle(t, f, sp, 0, "a kill")
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 3, "a kill")

	// Quota: the session is retired with a Done that carries a Code.
	c, err = client.Connect(f.gwWire, client.Options{Tenant: "t", Accel: "null", Quota: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, res, _ := c.Stream(testWords(16)); res == nil || res.Code == "" {
		t.Fatalf("quota session result %+v, want a Done with a Code", res)
	}
	c.Close()
	wantIdle(t, f, sp, 0, "a quota retire")
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 4, "a quota retire")
	wantIdle(t, f, sp, 1, "a clean session after the quota retire")
}

// TestGatewayIdleLegAfterShardRestart: the shard behind an idle leg
// restarts; the next session still gets a clean OpenOK, on a fresh leg to
// the new server.
func TestGatewayIdleLegAfterShardRestart(t *testing.T) {
	f := startFleet(t, 1)
	sp := f.shards[0]
	cleanSession(t, f.gwWire, "t")
	sp.restartWire(t)
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 1, "a restart")
	cleanSession(t, f.gwWire, "t")
	wantAccepts(t, sp, 1, "a session on the new leg")
}

// TestGatewayIdleLegAfterShardQuiesce: Quiesce does not wait for the
// gateway's idle leg — it returns true with an hour to go — and the next
// session for that shard's tenant still opens cleanly, on the ring's next
// candidate.
func TestGatewayIdleLegAfterShardQuiesce(t *testing.T) {
	f := startFleet(t, 2)
	tenant := f.tenantOwnedBy(t, "s0")
	cleanSession(t, f.gwWire, tenant)
	wantAccepts(t, f.shards[0], 1, "a session on s0")
	if !f.shards[0].sv.Quiesce(time.Hour) {
		t.Fatal("Quiesce waited on an idle gateway leg")
	}
	cleanSession(t, f.gwWire, tenant)
	wantAccepts(t, f.shards[1], 1, "failing over from the quiesced s0")
}

// Client connection reuse. The client package keeps a connection whose
// session ended cleanly and sends its next Open on it; the gateway, like a
// shard, loops back for that Open. Counting the front's accepts shows which
// endings keep a connection.

// front is where a test's client sessions go: a shard directly, or the
// gateway in front of it.
type front struct {
	name string
	addr string
	ln   *countingListener
}

func fronts(f *fleet) []front {
	sp := f.shards[0]
	return []front{
		{"direct", sp.wire, sp.ln},
		{"gateway", f.gwWire, f.gwLn},
	}
}

func wantFrontAccepts(t *testing.T, fr front, want int64, after string) {
	t.Helper()
	if n := fr.ln.accepts.Load(); n != want {
		t.Fatalf("after %s: %s accepted %d connections, want %d", after, fr.name, n, want)
	}
}

// TestClientReusesConnection: sequential clean sessions share one client
// connection on every hop — 50 through the gateway make one gateway accept
// and one shard accept, and 50 straight to the shard make one more.
func TestClientReusesConnection(t *testing.T) {
	f := startFleet(t, 1)
	sp := f.shards[0]
	for i := 0; i < 50; i++ {
		cleanSession(t, f.gwWire, "seq")
	}
	if n := f.gwLn.accepts.Load(); n != 1 {
		t.Fatalf("50 sessions through the gateway: %d gateway accepts, want 1", n)
	}
	wantAccepts(t, sp, 1, "50 sessions through the gateway")
	for i := 0; i < 50; i++ {
		cleanSession(t, sp.wire, "seq")
	}
	wantAccepts(t, sp, 2, "50 more sessions straight to the shard")
}

// TestClientRedialsAfterUncleanEnd: every ending but a clean one closes the
// client's connection instead of keeping it, so the session after it costs
// exactly one new accept and the one after that none.
func TestClientRedialsAfterUncleanEnd(t *testing.T) {
	endings := []struct {
		name string
		run  func(t *testing.T, sp *shardProc, addr string)
	}{
		{"error", func(t *testing.T, _ *shardProc, addr string) {
			if _, err := client.Connect(addr, client.Options{Tenant: "t", Accel: "no-such"}); err == nil {
				t.Fatal("unknown accelerator admitted")
			}
		}},
		{"kill", func(t *testing.T, sp *shardProc, addr string) {
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null"})
			defer c.Close()
			if err := c.Send(testWords(8)); err != nil {
				t.Fatal(err)
			}
			if !sp.s.Kill(c.Session()) {
				t.Fatalf("session %d not live on the shard", c.Session())
			}
			if _, _, err := c.Stream(nil); err == nil {
				t.Fatal("killed session ended without an error")
			}
		}},
		{"quota", func(t *testing.T, _ *shardProc, addr string) {
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null", Quota: 4})
			defer c.Close()
			if _, res, _ := c.Stream(testWords(16)); res == nil || res.Code == "" {
				t.Fatalf("quota session result %+v, want a Done with a Code", res)
			}
		}},
		{"close-before-done", func(t *testing.T, _ *shardProc, addr string) {
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null"})
			if c.Send(testWords(8)) != nil || c.CloseSend() != nil {
				t.Fatal("send failed")
			}
			c.Close()
		}},
		{"unread-results", func(t *testing.T, _ *shardProc, addr string) {
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null"})
			if c.Send(testWords(8)) != nil || c.CloseSend() != nil {
				t.Fatal("send failed")
			}
			if _, err := c.RecvInto(make([]cohort.Word, 1)); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}},
		{"no-close-send", func(t *testing.T, _ *shardProc, addr string) {
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null"})
			in := testWords(8)
			if err := c.Send(in); err != nil {
				t.Fatal(err)
			}
			buf := make([]cohort.Word, len(in))
			for got := 0; got < len(buf); {
				n, err := c.RecvInto(buf[got:])
				if err != nil {
					t.Fatal(err)
				}
				got += n
			}
			assertEcho(t, in, buf)
			c.Close()
		}},
	}
	f := startFleet(t, 1)
	for _, fr := range fronts(f) {
		for _, e := range endings {
			t.Run(fr.name+"/"+e.name, func(t *testing.T) {
				cleanSession(t, fr.addr, "t")
				before := fr.ln.accepts.Load()
				e.run(t, f.shards[0], fr.addr)
				wantFrontAccepts(t, fr, before, e.name)
				cleanSession(t, fr.addr, "t")
				wantFrontAccepts(t, fr, before+1, "the session after "+e.name)
				cleanSession(t, fr.addr, "t")
				wantFrontAccepts(t, fr, before+1, "a second session after "+e.name)
			})
		}
	}
}

// TestClientRedialsClosedIdleConnection: when the far end closes a kept
// connection — the gateway closes, the shard quiesces or restarts — the next
// Connect dials again inside the call: it returns no error, and the shard
// admits exactly one session for it.
func TestClientRedialsClosedIdleConnection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		gateway bool // the kept connection goes to the gateway, not the shard
		// closeFar closes the far end of the kept connection and serves a
		// fresh listener on the same address; it returns where to connect
		// and the listener to count accepts on.
		closeFar func(t *testing.T, f *fleet) (string, *countingListener)
	}{
		{"gateway-close", true, func(t *testing.T, f *fleet) (string, *countingListener) {
			f.gw.Close()
			f.startGateway(t, f.gwWire)
			return f.gwWire, f.gwLn
		}},
		{"shard-quiesce", false, func(t *testing.T, f *fleet) (string, *countingListener) {
			sp := f.shards[0]
			if !sp.sv.Quiesce(time.Hour) {
				t.Fatal("Quiesce waited on an idle client connection")
			}
			sp.restartWire(t)
			return sp.wire, sp.ln
		}},
		{"shard-restart", false, func(t *testing.T, f *fleet) (string, *countingListener) {
			sp := f.shards[0]
			sp.restartWire(t)
			return sp.wire, sp.ln
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFleet(t, 1)
			sp := f.shards[0]
			addr := sp.wire
			if tc.gateway {
				addr = f.gwWire
			}
			cleanSession(t, addr, "t")
			addr, ln := tc.closeFar(t, f)
			admitted := sp.s.Stats().Admitted
			c := mustConnect(t, addr, client.Options{Tenant: "t", Accel: "null"})
			if n := sp.s.Stats().Admitted - admitted; n != 1 {
				t.Fatalf("the shard admitted %d sessions for one Connect, want 1", n)
			}
			if n := ln.accepts.Load(); n != 1 {
				t.Fatalf("the fresh listener accepted %d connections, want 1", n)
			}
			in := testWords(32)
			out, res, err := c.Stream(in)
			if err != nil || res == nil || res.Code != "" {
				t.Fatalf("stream after redial: %+v %v", res, err)
			}
			assertEcho(t, in, out)
			c.Close()
		})
	}
}

func mustConnect(t *testing.T, addr string, opts client.Options) *client.Conn {
	t.Helper()
	c, err := client.Connect(addr, opts)
	if err != nil {
		t.Fatalf("connect %s: %v", addr, err)
	}
	return c
}

// TestGatewayClientReuseRule: the gateway closes a client connection after
// its session unless the Open asked for reuse and the Done has no Code —
// the rule a shard applies — and it serves the next Open on one that
// qualifies.
func TestGatewayClientReuseRule(t *testing.T) {
	f := startFleet(t, 1)
	for _, tc := range []struct {
		name  string
		req   wire.OpenRequest
		code  string
		keeps bool
	}{
		{"clean-reuse", wire.OpenRequest{Tenant: "t", Accel: "null", Reuse: true}, "", true},
		{"quota-reuse", wire.OpenRequest{Tenant: "t", Accel: "null", Quota: 2, Reuse: true}, wire.CodeQuota, false},
		{"clean-no-reuse", wire.OpenRequest{Tenant: "t", Accel: "null"}, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", f.gwWire)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r, w := wire.NewReader(c), wire.NewWriter(c)
			if err := w.Open(&tc.req); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := r.Next(); err != nil || typ != wire.OpenOK {
				t.Fatalf("open reply = %v %v, want open-ok", typ, err)
			}
			if w.Words(testWords(16)) != nil || w.Frame(wire.CloseSend, nil) != nil {
				t.Fatal("send failed")
			}
			for {
				typ, _, p, err := r.NextData()
				if err != nil {
					t.Fatalf("result stream: %v", err)
				}
				if typ == wire.Data {
					continue
				}
				var done wire.DoneReply
				if typ != wire.Done || wire.Unmarshal(typ, p, &done) != nil || done.Code != tc.code {
					t.Fatalf("final frame %v %+v, want a Done with code %q", typ, done, tc.code)
				}
				break
			}
			if tc.keeps {
				// The next Open is served on the same connection.
				if err := w.Open(&tc.req); err != nil {
					t.Fatal(err)
				}
			}
			c.SetReadDeadline(time.Now().Add(fleetDeadline))
			typ, _, err := r.Next()
			switch {
			case tc.keeps && (err != nil || typ != wire.OpenOK):
				t.Fatalf("second open on the kept connection = %v %v, want open-ok", typ, err)
			case !tc.keeps && (err == nil || errors.Is(err, os.ErrDeadlineExceeded)):
				t.Fatalf("read %v %v from a connection the gateway should have closed", typ, err)
			}
		})
	}
}
