package cluster_test

import (
	"io"
	"net"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/cluster"
	"cohort/internal/sched"
)

// sessionOnce runs one whole session against addr the way the serve-churn
// workload does — Connect, one Send, CloseSend, read to Done, Close — with
// caller-owned buffers, so what is counted is the session lifecycle on both
// ends and not the test's own bookkeeping.
func sessionOnce(tb testing.TB, addr string, in, buf []cohort.Word) {
	c, err := client.Connect(addr, client.Options{Tenant: "ledger", Accel: "null"})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	if c.Send(in) != nil || c.CloseSend() != nil {
		tb.Fatal("send failed")
	}
	for {
		if _, err := c.RecvInto(buf); err == io.EOF {
			break
		} else if err != nil {
			tb.Fatal(err)
		}
	}
	if res := c.Result(); res == nil || res.Err != "" || res.Blocks != uint64(len(in)) {
		tb.Fatalf("result %+v, want %d clean blocks", res, len(in))
	}
}

// TestSessionAllocationCeilings caps the heap allocations of one whole
// session, client and servers together (AllocsPerRun counts the process):
// the session-lifecycle row of the allocation ledger. Three rows: a client
// on a warm connection to the shard, the same against a shard whose
// scheduler has a metrics Registry, and a client on warm connections to the
// gateway and to the shard its Redirect names, so the gateway row is the
// direct row plus the placement. The catalog probes once, at Start, so no
// probe lands inside the count. A session owns no metric source, so the
// Registry row must count exactly what the direct row does.
//
// The ceiling is the measured count plus a tenth, headroom for allocations
// the Go runtime makes differently across releases. History (direct,
// gateway): 95 and 151 before the Open went binary and gateway legs were
// reused; 85 and 94 while every client session still dialled its own
// connection; 32 and 44 while every session registered its own metric
// source, which cost 3 more with a Registry; 29 and 41 while the gateway
// relayed every frame over a warm shard leg of its own; 29 and 33 while
// every same-host session streamed Data frames through a result-pump
// goroutine of its own.
func TestSessionAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime makes allocations of its own")
	}
	sp := startShard(t, "s0")
	spReg := startShardWith(t, "s0-registry", sched.Config{
		Engines: 1, Quantum: 64, QueueCap: 16384, Registry: cohort.NewRegistry(),
	})
	cat, err := cluster.NewCatalog(cluster.CatalogConfig{
		Shards:   []cluster.Shard{{Name: sp.name, Addr: sp.wire, HTTP: sp.http}},
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat.Start()
	t.Cleanup(cat.Stop)
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln) //nolint:errcheck // returns ErrGatewayClosed on stop
	t.Cleanup(func() { gw.Close() })

	in, buf := testWords(32), make([]cohort.Word, 64)
	counts := map[string]float64{}
	for _, c := range []struct {
		name     string
		addr     string
		measured float64 // Go 1.24, linux/amd64
	}{
		{"direct", sp.wire, 27},
		{"direct-registry", spReg.wire, 27},
		{"gateway", ln.Addr().String(), 31},
	} {
		sessionOnce(t, c.addr, in, buf) // warm: pools and the connections
		n := testing.AllocsPerRun(50, func() { sessionOnce(t, c.addr, in, buf) })
		counts[c.name] = n
		t.Logf("%s: %.0f allocations per session", c.name, n)
		if ceiling := c.measured + c.measured/10; n > ceiling {
			t.Errorf("%s: %.0f allocations per session, ceiling %.0f (measured %.0f)",
				c.name, n, ceiling, c.measured)
		}
	}
	if d, r := counts["direct"], counts["direct-registry"]; r != d {
		t.Errorf("a Registry costs %+.0f allocations per session (%.0f with, %.0f without), want 0", r-d, r, d)
	}
}
