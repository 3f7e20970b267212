package cluster

import (
	"net"
	"testing"

	"cohort"
	"cohort/internal/wire"
)

// gwMetric reads one of the registry's "gw" counters.
func gwMetric(t *testing.T, reg *cohort.Registry, name string) uint64 {
	t.Helper()
	for _, src := range reg.Snapshot() {
		if src.Name != "gw" {
			continue
		}
		for _, m := range src.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
	}
	t.Fatalf("no gw metric %q", name)
	return 0
}

// TestAbandonedOpenIsNotARejection pins the gateway's "rejected" counter to
// Opens that no shard would take. A client that hangs up before its
// Redirect reaches it was refused by nobody: it does not count, and gets no
// no-shard Error. Each Open runs through session over an in-memory pipe, so
// the outcome does not depend on timing: the pipe's write fails the moment
// the client end is closed.
func TestAbandonedOpenIsNotARejection(t *testing.T) {
	const addr = "127.0.0.1:7411"
	cat, err := NewCatalog(CatalogConfig{Shards: []Shard{{Name: "s0", Addr: addr}}})
	if err != nil {
		t.Fatal(err)
	}
	healthy := func(up bool) {
		st := StateDown
		if up {
			st = StateHealthy
		}
		cat.apply([]probeResult{{state: st}})
	}
	reg := cohort.NewRegistry()
	g, err := NewGateway(GatewayConfig{Catalog: cat, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	open, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "t", Accel: "null", Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	// run hands one client connection to session, sends the Open, passes
	// the client end to after, and returns once the session has finished
	// with whether it kept the connection.
	run := func(after func(c net.Conn)) bool {
		client, srv := net.Pipe()
		defer client.Close()
		kept := make(chan bool, 1)
		go func() {
			defer srv.Close()
			c := wire.NewConn(srv)
			typ, p, err := c.R.Next()
			kept <- err == nil && typ == wire.Open && g.session(c, p)
		}()
		// A pipe write returns only once the handler has read every byte.
		if err := wire.NewWriter(client).Frame(wire.Open, open); err != nil {
			t.Fatal(err)
		}
		after(client)
		return <-kept
	}
	reply := func(want wire.Type, check func(p []byte)) func(c net.Conn) {
		return func(c net.Conn) {
			typ, p, err := wire.NewReader(c).Next()
			if err != nil || typ != want {
				t.Errorf("reply %v %v, want %s", typ, err, want)
				return
			}
			check(p)
		}
	}

	// The client hangs up before the Redirect can reach it.
	healthy(true)
	if run(func(c net.Conn) { c.Close() }) {
		t.Error("a connection whose Redirect failed was kept")
	}
	if n := gwMetric(t, reg, "rejected"); n != 0 {
		t.Fatalf("client hang-up before the Redirect counted %d rejections, want 0", n)
	}

	// Control: a client that reads gets a Redirect to the healthy shard,
	// and its connection is kept.
	if !run(reply(wire.Redirect, func(p []byte) {
		if got, err := wire.DecodeRedirect(p, nil); err != nil || len(got) != 1 || got[0] != addr {
			t.Errorf("redirect %v %v, want [%s]", got, err, addr)
		}
	})) {
		t.Error("a connection whose Open asked for reuse was closed after its Redirect")
	}

	// With no healthy shard the Open is refused — counted, and the client is
	// told why.
	healthy(false)
	if run(reply(wire.Error, func([]byte) {})) {
		t.Error("a refused Open kept its connection")
	}
	if n := gwMetric(t, reg, "rejected"); n != 1 {
		t.Fatalf("refused open counted %d rejections, want 1", n)
	}
	if n := gwMetric(t, reg, "opens"); n != 3 {
		t.Fatalf("opens = %d, want 3", n)
	}
}

// TestGatewayReplicasFitARedirect: the most candidates a gateway may name
// is the most one Redirect carries.
func TestGatewayReplicasFitARedirect(t *testing.T) {
	cat, err := NewCatalog(CatalogConfig{Shards: []Shard{{Name: "s0", Addr: "127.0.0.1:7411"}}})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, maxReplicas)
	for i := range addrs {
		addrs[i] = "127.0.0.1:7411"
	}
	if _, err := wire.AppendRedirect(nil, addrs); err != nil {
		t.Fatalf("a Redirect of %d candidates: %v", maxReplicas, err)
	}
	if _, err := NewGateway(GatewayConfig{Catalog: cat, Replicas: maxReplicas}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGateway(GatewayConfig{Catalog: cat, Replicas: maxReplicas + 1}); err == nil {
		t.Fatalf("a gateway naming %d candidates was built", maxReplicas+1)
	}
}
