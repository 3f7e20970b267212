package cluster_test

// Gateway→shard leg reuse, checked by counting the connections each shard
// accepts. A session's client sees its Done only after the gateway has
// settled the leg, so a client that opens its next session on receipt meets
// a deterministic leg state: no sleeps and no wall-clock asserts.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cohort/client"
	"cohort/internal/sched"
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
