// Fleet loopback tests: real schedulers, real TCP wire servers, a real
// probing catalog and gateway — two shards' worth of serving stack in one
// process. External test package because it drives the fleet through the
// cohort/client package, as a tenant would.
package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/cluster"
	"cohort/internal/obsrv"
	"cohort/internal/sched"
	"cohort/internal/telem"
	"cohort/internal/wire"
)

const fleetDeadline = 10 * time.Second

// shardProc is one in-process cohortd equivalent: scheduler, wire server,
// observability plane with drain wired exactly as cmd/cohortd wires it.
type shardProc struct {
	name string
	wire string
	http string
	ln   *countingListener
	s    *sched.Scheduler
	sv   *sched.Server
	web  *obsrv.Server
	once sync.Once
}

func (sp *shardProc) stop() {
	sp.once.Do(func() {
		sp.sv.Close()
		sp.s.Close()
		sp.web.Close()
	})
}

func startShard(t *testing.T, name string) *shardProc {
	t.Helper()
	return startShardWith(t, name, sched.Config{Engines: 1, Quantum: 64, QueueCap: 16384})
}

// startShardWith is startShard with the scheduler configured by cfg.
func startShardWith(t *testing.T, name string, cfg sched.Config) *shardProc {
	t.Helper()
	s := sched.New(cfg)
	sv := sched.NewServer(s, nil) // default catalog: "null" is 1:1 pass-through
	ln := listenCounting(t, "127.0.0.1:0")
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	web := obsrv.New(obsrv.Options{
		Health: func() []obsrv.Health {
			return []obsrv.Health{{Name: "sched", Draining: s.Draining()}}
		},
		Docs: map[string]func() any{"/sessions": func() any { return s.Sessions() }},
		Drain: func(trigger bool) any {
			if trigger {
				s.Drain()
			}
			return s.DrainStatus()
		},
	})
	if err := web.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sp := &shardProc{name: name, wire: ln.Addr().String(), http: web.Addr(), ln: ln, s: s, sv: sv, web: web}
	t.Cleanup(sp.stop)
	return sp
}

// fleet is two-or-more shards behind a catalog, gateway, and merged
// observability plane — the whole cluster stack on loopback.
type fleet struct {
	shards []*shardProc
	cat    *cluster.Catalog
	events *telem.Log
	gwWire string
	gwLn   *countingListener
	gwHTTP string
	gw     *cluster.Gateway
	gwWeb  *obsrv.Server
}

func startFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{events: telem.NewLog(256, nil)}
	members := make([]cluster.Shard, 0, n)
	for i := 0; i < n; i++ {
		sp := startShard(t, fmt.Sprintf("s%d", i))
		f.shards = append(f.shards, sp)
		members = append(members, cluster.Shard{Name: sp.name, Addr: sp.wire, HTTP: sp.http})
	}
	cat, err := cluster.NewCatalog(cluster.CatalogConfig{
		Shards: members, Interval: 20 * time.Millisecond, Events: f.events,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat.Start()
	t.Cleanup(cat.Stop)
	f.cat = cat

	f.startGateway(t, "127.0.0.1:0")

	fl := cluster.NewFleet(cat, time.Second)
	gwWeb := obsrv.New(obsrv.Options{
		Health: fl.Health,
		Events: func(since uint64, max int) any { return f.events.PageSince(since, max) },
		Docs: map[string]func() any{
			"/sessions":  fl.Sessions,
			"/stats/slo": fl.SLO,
			"/ring":      func() any { return cat.Snapshot() },
		},
	})
	if err := gwWeb.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gwWeb.Close() })
	f.gwWeb, f.gwHTTP = gwWeb, gwWeb.Addr()
	return f
}

// startGateway serves a gateway over the fleet's catalog on addr.
func (f *fleet) startGateway(t *testing.T, addr string) {
	t.Helper()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Catalog: f.cat, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln := listenCounting(t, addr)
	go gw.Serve(ln) //nolint:errcheck // returns ErrGatewayClosed on stop
	t.Cleanup(func() { gw.Close() })
	f.gw, f.gwLn, f.gwWire = gw, ln, ln.Addr().String()
}

// tenantOwnedBy finds a tenant name the current ring routes to the given
// shard — deterministic, since the ring is a pure function of membership.
func (f *fleet) tenantOwnedBy(t *testing.T, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if cands := f.cat.Route(name, 1); len(cands) == 1 && cands[0].Name == shard {
			return name
		}
	}
	t.Fatalf("no tenant routes to shard %s", shard)
	return ""
}

// waitFor polls cond until true or the fleet deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(fleetDeadline)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func httpGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func testWords(n int) []cohort.Word {
	ws := make([]cohort.Word, n)
	for i := range ws {
		ws[i] = cohort.Word(i)*2654435761 + 7
	}
	return ws
}

func assertEcho(t *testing.T, in, out []cohort.Word) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("got %d result words, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("result word %d = %#x, want %#x", i, out[i], in[i])
		}
	}
}

// TestFleetRoutingAndMergedSessions: sessions opened through the gateway
// land on the shard the ring owns them to, both shards serve concurrently,
// and the gateway's merged /sessions and /healthz attribute them per shard.
func TestFleetRoutingAndMergedSessions(t *testing.T) {
	f := startFleet(t, 2)
	waitFor(t, "both shards healthy", func() bool {
		n := 0
		for _, sh := range f.cat.Snapshot().Shards {
			if sh.State == cluster.StateHealthy {
				n++
			}
		}
		return n == 2
	})

	// One live session per shard, routed by tenant key through the gateway.
	conns := make([]*client.Conn, 2)
	for i, sp := range f.shards {
		tenant := f.tenantOwnedBy(t, sp.name)
		c, err := client.Connect(f.gwWire, client.Options{Tenant: tenant, Accel: "null"})
		if err != nil {
			t.Fatalf("connect %s (owner %s): %v", tenant, sp.name, err)
		}
		defer c.Close()
		if err := c.Send(testWords(64)); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	for i, sp := range f.shards {
		if n := len(sp.s.Sessions()); n != 1 {
			t.Fatalf("shard %s holds %d sessions, want 1 (ring misroute?)", sp.name, n)
		}
		_ = i
	}

	// Merged /sessions: both shards' rows carry live session bodies.
	_, body := httpGet(t, f.gwHTTP, "/sessions")
	var docs []cluster.ShardDoc
	if err := json.Unmarshal(body, &docs); err != nil {
		t.Fatalf("merged /sessions is not []ShardDoc: %v\n%s", err, body)
	}
	if len(docs) != 2 {
		t.Fatalf("merged /sessions has %d shard rows, want 2", len(docs))
	}
	for _, d := range docs {
		if d.Err != "" {
			t.Fatalf("shard %s row carries error %q", d.Shard, d.Err)
		}
		var sessions []sched.SessionInfo
		if err := json.Unmarshal(d.Body, &sessions); err != nil {
			t.Fatalf("shard %s body: %v", d.Shard, err)
		}
		if len(sessions) != 1 {
			t.Fatalf("shard %s reports %d sessions in merged doc, want 1", d.Shard, len(sessions))
		}
	}

	// Merged /healthz: whole fleet healthy → "ok".
	code, body := httpGet(t, f.gwHTTP, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("fleet /healthz = %d %s, want 200 ok", code, body)
	}

	// Streams complete word-identically on the shards they were redirected to.
	in := testWords(64)
	for _, c := range conns {
		if err := c.CloseSend(); err != nil {
			t.Fatal(err)
		}
		var out []cohort.Word
		buf := make([]cohort.Word, 256)
		for {
			n, err := c.RecvInto(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buf[:n]...)
		}
		assertEcho(t, in, out)
		if res := c.Result(); res == nil || res.Err != "" || res.Blocks != 64 {
			t.Fatalf("result %+v, want 64 clean blocks", res)
		}
	}
}

// TestDrainFailover: POST /drain on a shard stops its admissions (typed
// ErrDraining on direct connects), ejects it from the ring (shard_drain
// event), reroutes new sessions to the survivor through the gateway — while
// the drained shard's in-flight session flushes its results untouched.
func TestDrainFailover(t *testing.T) {
	f := startFleet(t, 2)
	waitFor(t, "both shards healthy", func() bool {
		n := 0
		for _, sh := range f.cat.Snapshot().Shards {
			if sh.State == cluster.StateHealthy {
				n++
			}
		}
		return n == 2
	})
	victim, survivor := f.shards[0], f.shards[1]
	tenant := f.tenantOwnedBy(t, victim.name)

	// In-flight session on the victim, opened pre-drain, half sent.
	in := testWords(128)
	pre, err := client.Connect(f.gwWire, client.Options{Tenant: tenant, Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	if err := pre.Send(in[:64]); err != nil {
		t.Fatal(err)
	}

	// Drain via the HTTP plane, as an orchestrator would.
	resp, err := http.Post("http://"+victim.http+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ds sched.DrainStatus
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ds.Draining || ds.Live != 1 {
		t.Fatalf("drain status after POST = %+v, want draining with 1 live", ds)
	}

	// Direct connect to the draining shard: typed, immediately-retryable.
	_, err = client.Connect(victim.wire, client.Options{Tenant: tenant, Accel: "null"})
	if !errors.Is(err, client.ErrDraining) || !errors.Is(err, client.ErrRejected) {
		t.Fatalf("direct connect to draining shard: err = %v, want ErrDraining wrapping ErrRejected", err)
	}
	if errors.Is(err, client.ErrAdmission) {
		t.Fatalf("ErrDraining must be distinct from ErrAdmission: %v", err)
	}

	// The catalog observes the drain and ejects the shard from the ring.
	waitFor(t, "catalog sees draining", func() bool {
		for _, sh := range f.cat.Snapshot().Shards {
			if sh.Name == victim.name {
				return sh.State == cluster.StateDraining
			}
		}
		return false
	})
	var page telem.Page
	_, body := httpGet(t, f.gwHTTP, "/events")
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range page.Events {
		if ev.Type == "shard_drain" && ev.Tenant == victim.name {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard_drain event for %s in /events: %+v", victim.name, page.Events)
	}

	// The same tenant reconnecting lands on the survivor via the gateway.
	post, err := client.Connect(f.gwWire, client.Options{Tenant: tenant, Accel: "null", Reconnect: 3})
	if err != nil {
		t.Fatalf("failover connect: %v", err)
	}
	defer post.Close()
	waitFor(t, "survivor admits the failover session", func() bool {
		return len(survivor.s.Sessions()) == 1
	})
	out, res, err := post.Stream(testWords(32))
	if err != nil {
		t.Fatal(err)
	}
	assertEcho(t, testWords(32), out)
	if res.Err != "" {
		t.Fatalf("failover session result %+v", res)
	}

	// The in-flight session on the draining shard flushes byte-identically.
	if err := pre.Send(in[64:]); err != nil {
		t.Fatal(err)
	}
	if err := pre.CloseSend(); err != nil {
		t.Fatal(err)
	}
	var out2 []cohort.Word
	buf := make([]cohort.Word, 256)
	for {
		n, err := pre.RecvInto(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out2 = append(out2, buf[:n]...)
	}
	assertEcho(t, in, out2)
	if res := pre.Result(); res == nil || res.Err != "" || res.Blocks != 128 {
		t.Fatalf("in-flight result %+v, want 128 clean blocks", res)
	}

	// Last session retired: the drain barrier reports complete and /healthz
	// keeps saying "draining" (200) until the process exits.
	waitFor(t, "drain barrier", func() bool {
		select {
		case <-victim.s.Drained():
			return true
		default:
			return false
		}
	})
	code, body := httpGet(t, victim.http, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "draining"`) {
		t.Fatalf("drained shard /healthz = %d %s, want 200 draining", code, body)
	}
}

// TestShardLossMidStreamFailover: a shard dying mid-stream surfaces as a
// typed ErrKilled to a client the gateway placed there (not a bare reset),
// and the client's replayed session completes on the survivor — failover is
// client replay, no server-side state migration.
func TestShardLossMidStreamFailover(t *testing.T) {
	f := startFleet(t, 2)
	waitFor(t, "both shards healthy", func() bool {
		n := 0
		for _, sh := range f.cat.Snapshot().Shards {
			if sh.State == cluster.StateHealthy {
				n++
			}
		}
		return n == 2
	})
	victim, survivor := f.shards[0], f.shards[1]
	tenant := f.tenantOwnedBy(t, victim.name)

	in := testWords(64)
	c, err := client.Connect(f.gwWire, client.Options{Tenant: tenant, Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	// Confirm the stream is flowing before the kill, then take the shard
	// down hard (server, scheduler, observability — the whole process).
	buf := make([]cohort.Word, 256)
	if _, err := c.RecvInto(buf); err != nil {
		t.Fatal(err)
	}
	victim.stop()

	// The client reports the lost shard connection as a typed kill.
	for {
		_, err = c.RecvInto(buf)
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		// The stream may have fully completed before the kill landed; the
		// interesting path is the error one, so only assert when it errored.
		t.Skip("stream completed before the shard died; nothing to fail over")
	}
	if !errors.Is(err, client.ErrKilled) {
		t.Fatalf("mid-stream shard loss: err = %v, want ErrKilled", err)
	}

	// Replay on a fresh session: the client walks past the dead shard (dial
	// failure, or the catalog's ejection leaves it out of the Redirect,
	// whichever lands first).
	re, err := client.Connect(f.gwWire, client.Options{Tenant: tenant, Accel: "null", Reconnect: 5})
	if err != nil {
		t.Fatalf("replay connect: %v", err)
	}
	defer re.Close()
	out, res, err := re.Stream(in)
	if err != nil {
		t.Fatalf("replayed stream: %v", err)
	}
	assertEcho(t, in, out)
	if res.Err != "" || res.Blocks != 64 {
		t.Fatalf("replayed result %+v, want 64 clean blocks", res)
	}
	if got := len(survivor.s.Sessions()); got != 0 {
		t.Fatalf("survivor still holds %d sessions after replay completed", got)
	}
	if survivor.s.Stats().Retired == 0 {
		t.Fatal("replayed session did not land on the survivor")
	}
}

// TestRedirectNamesRouteOwner: for 100 tenants, the gateway's Redirect
// names Catalog.Route's candidates in ring order, owner first, all on one
// kept gateway connection; and a client placed by it talks to the owner.
func TestRedirectNamesRouteOwner(t *testing.T) {
	f := startFleet(t, 2)
	waitFor(t, "both shards healthy", func() bool {
		n := 0
		for _, sh := range f.cat.Snapshot().Shards {
			if sh.State == cluster.StateHealthy {
				n++
			}
		}
		return n == 2
	})
	nc, err := net.Dial("tcp", f.gwWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(fleetDeadline))
	r, w := wire.NewReader(nc), wire.NewWriter(nc)
	owners := map[string]int{}
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		writeOpen(t, w, &wire.OpenRequest{Tenant: tenant, Accel: "null", Reuse: true})
		typ, p, err := r.Next()
		if err != nil || typ != wire.Redirect {
			t.Fatalf("%s: reply %v %v, want redirect", tenant, typ, err)
		}
		got, err := wire.DecodeRedirect(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := f.cat.Route(tenant, 2)
		if len(got) != len(want) {
			t.Fatalf("%s: redirect names %v, want %d candidates", tenant, got, len(want))
		}
		for j := range want {
			if got[j] != want[j].Addr {
				t.Fatalf("%s: redirect candidate %d is %s, want %s (%v)", tenant, j, got[j], want[j].Addr, got)
			}
		}
		owners[want[0].Name]++
	}
	if len(owners) != 2 {
		t.Fatalf("100 tenants all owned by one shard: %v", owners)
	}
	if n := f.gwLn.accepts.Load(); n != 1 {
		t.Fatalf("100 Opens took %d gateway accepts, want 1", n)
	}

	owner := f.shards[1]
	c := mustConnect(t, f.gwWire, client.Options{Tenant: f.tenantOwnedBy(t, owner.name), Accel: "null"})
	defer c.Close()
	if got := c.RemoteAddr(); got != owner.wire {
		t.Fatalf("redirected session landed on %s, want owner shard %s", got, owner.wire)
	}
}
