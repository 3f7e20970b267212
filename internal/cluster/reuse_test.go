package cluster_test

// Connection reuse on both hops, checked by counting the connections each
// listener accepts. The gateway keeps a client's connection after each
// Redirect; the client keeps its connection to the shard after each clean
// session and finds it by the shard's address, whether a Redirect named it
// or the caller did. A session's client sees its Done only after the shard
// has settled the connection, so a client that opens its next session on
// receipt meets a deterministic state: no sleeps and no wall-clock asserts.

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
// address, as a restarted cohortd would be. The clients' kept connections
// to it die with the old server.
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

// TestGatewayReusesShardLeg: sequential clean sessions through the gateway
// share one shard leg, the client's own kept connection to the shard the
// Redirect names — 50 sessions, one shard accept.
func TestGatewayReusesShardLeg(t *testing.T) {
	f := startFleet(t, 1)
	for i := 0; i < 50; i++ {
		cleanSession(t, f.gwWire, "seq")
	}
	wantAccepts(t, f.shards[0], 1, "50 sequential sessions")
}

// TestGatewayIdleLegAfterShardRestart: the shard behind the client's idle
// leg restarts; the next session through the gateway still gets a clean
// OpenOK, on a fresh leg to the new server dialled inside the Connect.
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
// client's idle leg to the shard — it returns true with an hour to go — and
// the next session for that shard's tenant still opens cleanly through the
// gateway, on the Redirect's next candidate.
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
// shard, loops back for that Open. Counting accepts shows which endings
// keep a connection.

// front is where a test's client sessions go: a shard directly, or the
// gateway in front of it. Either way the session runs on a connection to
// the shard, counted by shard; through the gateway, gw counts the
// connections the Redirects travel on.
type front struct {
	name  string
	addr  string
	shard *countingListener
	gw    *countingListener // nil for the direct front
}

func fronts(f *fleet) []front {
	sp := f.shards[0]
	return []front{
		{"direct", sp.wire, sp.ln, nil},
		{"gateway", f.gwWire, sp.ln, f.gwLn},
	}
}

func wantFrontAccepts(t *testing.T, fr front, want int64, after string) {
	t.Helper()
	if n := fr.shard.accepts.Load(); n != want {
		t.Fatalf("after %s (%s): the shard accepted %d connections, want %d", after, fr.name, n, want)
	}
}

// TestClientReusesConnection: sequential clean sessions share one client
// connection on every hop — 50 through the gateway make one gateway accept
// and one shard accept, and 50 straight to the shard then run on that same
// kept shard connection, with no accept at all.
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
	wantAccepts(t, sp, 1, "50 more sessions straight to the shard")
}

// TestClientRedialsAfterUncleanEnd: every ending but a clean one closes the
// client's connection to the shard instead of keeping it, so the session
// after it costs exactly one new shard accept and the one after that none.
// Through the gateway, the connection the Redirects travel on is kept
// through every ending: the gateway never sees how a session ended.
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
				before := fr.shard.accepts.Load()
				var gwBefore int64
				if fr.gw != nil {
					gwBefore = fr.gw.accepts.Load()
				}
				e.run(t, f.shards[0], fr.addr)
				wantFrontAccepts(t, fr, before, e.name)
				cleanSession(t, fr.addr, "t")
				wantFrontAccepts(t, fr, before+1, "the session after "+e.name)
				cleanSession(t, fr.addr, "t")
				wantFrontAccepts(t, fr, before+1, "a second session after "+e.name)
				if fr.gw != nil {
					if n := fr.gw.accepts.Load(); n != gwBefore {
						t.Fatalf("after %s: the gateway accepted %d connections, want 0", e.name, n-gwBefore)
					}
				}
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

// TestGatewayClientReuseRule: the gateway keeps a client connection after
// its Redirect exactly when the Open asked for reuse, and serves the next
// Open on it. How the session then ends at the shard — cleanly, or retired
// by its quota — is nothing the gateway sees, and changes nothing.
func TestGatewayClientReuseRule(t *testing.T) {
	f := startFleet(t, 1)
	for _, tc := range []struct {
		name  string
		req   wire.OpenRequest
		code  string
		keeps bool
	}{
		{"clean-reuse", wire.OpenRequest{Tenant: "t", Accel: "null", Reuse: true}, "", true},
		{"quota-reuse", wire.OpenRequest{Tenant: "t", Accel: "null", Quota: 2, Reuse: true}, wire.CodeQuota, true},
		{"clean-no-reuse", wire.OpenRequest{Tenant: "t", Accel: "null"}, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw := rawDial(t, f.gwWire)
			writeOpen(t, gw.W, &tc.req)
			typ, p, err := gw.R.Next()
			if err != nil || typ != wire.Redirect {
				t.Fatalf("gateway reply = %v %v, want redirect", typ, err)
			}
			cands, err := wire.DecodeRedirect(p, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Follow the Redirect and run the session to its Done.
			sh := rawDial(t, cands[0])
			writeOpen(t, sh.W, &tc.req)
			if typ, _, err := sh.R.Next(); err != nil || typ != wire.OpenOK {
				t.Fatalf("shard reply = %v %v, want open-ok", typ, err)
			}
			if sh.W.Words(testWords(16)) != nil || sh.W.Frame(wire.CloseSend, nil) != nil {
				t.Fatal("send failed")
			}
			for {
				typ, _, p, err := sh.R.NextData()
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
				writeOpen(t, gw.W, &tc.req)
			}
			typ, _, err = gw.R.Next()
			switch {
			case tc.keeps && (err != nil || typ != wire.Redirect):
				t.Fatalf("second open on the kept connection = %v %v, want redirect", typ, err)
			case !tc.keeps && (err == nil || errors.Is(err, os.ErrDeadlineExceeded)):
				t.Fatalf("read %v %v from a connection the gateway should have closed", typ, err)
			}
		})
	}
}

// rawDial dials addr for a test that speaks the wire protocol itself.
// writeOpen sends req as an Open frame the way the client does.
func writeOpen(t *testing.T, w *wire.Writer, req *wire.OpenRequest) {
	t.Helper()
	b, err := wire.AppendOpen(nil, req)
	if err != nil || w.Frame(wire.Open, b) != nil {
		t.Fatal("open failed", err)
	}
}

func rawDial(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(fleetDeadline))
	return wire.NewConn(nc)
}
