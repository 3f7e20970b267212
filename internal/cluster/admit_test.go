package cluster

import (
	"net"
	"testing"

	"cohort"
	"cohort/internal/sched"
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
// Opens that no shard would take. A client that hangs up before its OpenOK
// is relayed, and an Open that meets a closing gateway, were refused by
// nobody: neither counts, and neither gets a no-shard Error. Each Open
// runs through session over an in-memory pipe, so the outcome does not
// depend on timing: the pipe's write fails the moment the client end is
// closed.
func TestAbandonedOpenIsNotARejection(t *testing.T) {
	s := sched.New(sched.Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	sv := sched.NewServer(s, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	defer sv.Close()

	cat, err := NewCatalog(CatalogConfig{Shards: []Shard{{Name: "s0", Addr: ln.Addr().String()}}})
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
	open, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "t", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	// run hands one client connection to session, sends the Open, passes
	// the client end to after, and returns once the session has finished.
	run := func(after func(c net.Conn)) {
		client, srv := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srv.Close()
			c := wire.NewConn(srv)
			if typ, p, err := c.R.Next(); err == nil && typ == wire.Open {
				g.session(c, p)
			}
		}()
		// A pipe write returns only once the handler has read every byte.
		if err := wire.NewWriter(client).Frame(wire.Open, open); err != nil {
			t.Fatal(err)
		}
		after(client)
		<-done
	}
	hangUp := func(c net.Conn) { c.Close() }

	// The client hangs up before the shard's OpenOK can be relayed.
	healthy(true)
	run(hangUp)
	if n := gwMetric(t, reg, "rejected"); n != 0 {
		t.Fatalf("client hang-up before OpenOK counted %d rejections, want 0", n)
	}

	// Control: with no healthy shard the Open is refused — counted, and the
	// client is told why.
	healthy(false)
	run(func(c net.Conn) {
		typ, _, err := wire.NewReader(c).Next()
		if err != nil || typ != wire.Error {
			t.Errorf("refused open: reply %v %v, want error", typ, err)
		}
	})
	if n := gwMetric(t, reg, "rejected"); n != 1 {
		t.Fatalf("refused open counted %d rejections, want 1", n)
	}

	// An Open that reaches a closing gateway is abandoned, not refused.
	healthy(true)
	g.Close()
	run(func(c net.Conn) {
		if typ, _, err := wire.NewReader(c).Next(); err == nil {
			t.Errorf("closing gateway answered with a %s frame", typ)
		}
	})
	if n := gwMetric(t, reg, "rejected"); n != 1 {
		t.Fatalf("open during Close counted as a rejection: rejected = %d, want 1", n)
	}
	if n := gwMetric(t, reg, "opens"); n != 3 {
		t.Fatalf("opens = %d, want 3", n)
	}
}
