package cluster_test

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"cohort/client"
	"cohort/internal/cluster"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// byteListener counts the bytes its accepted connections carry, both ways.
type byteListener struct {
	net.Listener
	n atomic.Int64
}

func (l *byteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return byteConn{c, &l.n}, nil
}

type byteConn struct {
	net.Conn
	n *atomic.Int64
}

func (c byteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c byteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func listenBytes(t *testing.T, addr string) *byteListener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &byteListener{Listener: ln}
}

// TestGatewayCarriesNoData: a 64-block session placed by the gateway moves
// its words between the client and the shard alone. The gateway's
// connection carries no more bytes than the Open and the Redirect; the
// shard's carries the Data both ways.
func TestGatewayCarriesNoData(t *testing.T) {
	f := startFleet(t, 1)
	sp := f.shards[0]
	// Serve the shard and the gateway again, on listeners that count bytes.
	sp.sv.Close()
	shardLn := listenBytes(t, sp.wire)
	sp.sv = sched.NewServer(sp.s, nil)
	go sp.sv.Serve(shardLn) //nolint:errcheck // returns ErrServerClosed on stop
	f.gw.Close()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Catalog: f.cat})
	if err != nil {
		t.Fatal(err)
	}
	gwLn := listenBytes(t, "127.0.0.1:0")
	go gw.Serve(gwLn) //nolint:errcheck // returns ErrGatewayClosed on stop
	t.Cleanup(func() { gw.Close() })

	const blocks = 64 // "null" is one word per block
	opts := client.Options{Tenant: "bytes", Accel: "null"}
	c := mustConnect(t, gwLn.Addr().String(), opts)
	in := testWords(blocks)
	out, res, err := c.Stream(in)
	if err != nil || res == nil || res.Blocks != blocks {
		t.Fatalf("stream: %+v %v, want %d blocks", res, err, blocks)
	}
	assertEcho(t, in, out)
	c.Close()

	open, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: opts.Tenant, Accel: opts.Accel, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	redirect, err := wire.AppendRedirect(nil, []string{sp.wire})
	if err != nil {
		t.Fatal(err)
	}
	const header = 5
	control := int64(header + len(open) + header + len(redirect))
	if n := gwLn.n.Load(); n > control {
		t.Fatalf("the gateway's connection carried %d bytes, more than the Open and the Redirect (%d)", n, control)
	}
	// The words went between the client and the shard alone: on one host,
	// through the region the shard's connection attached, which then
	// carries the Open, the OpenOK, Doorbells, the CloseSend and the Done.
	waitFor(t, "the shard's last write", func() bool { return shardLn.n.Load() >= int64(header+len(open)+header+16) })
}

// TestOpenBoundsRefused: an Open whose queue_cap or weight is past its
// bound is refused as a bad request at the shard and at the gateway alike,
// before either allocates what it asks for; the client refuses to send it;
// and an Open inside both bounds is still admitted.
func TestOpenBoundsRefused(t *testing.T) {
	f := startFleet(t, 1)
	sp := f.shards[0]
	valid, err := wire.AppendOpen(nil, &wire.OpenRequest{Tenant: "big", Accel: "null"})
	if err != nil {
		t.Fatal(err)
	}
	// The Open layout's weight is the int32 at byte 2, queue_cap at 14.
	patched := func(off int, v int32) []byte {
		p := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
		return p
	}
	for _, tc := range []struct {
		name string
		open []byte
	}{
		{"queue_cap=2^31-1", patched(14, math.MaxInt32)},
		{"weight=2^30", patched(2, 1<<30)},
	} {
		for _, addr := range []string{sp.wire, f.gwWire} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := rawDial(t, addr)
			if err := c.W.Frame(wire.Open, tc.open); err != nil {
				t.Fatal(err)
			}
			typ, p, err := c.R.Next()
			var rej wire.ErrorReply
			if err != nil || typ != wire.Error || wire.Unmarshal(typ, p, &rej) != nil || rej.Code != wire.CodeBadRequest {
				t.Fatalf("%s at %s: reply %v %+v %v, want a bad-request Error", tc.name, addr, typ, rej, err)
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("%s at %s: refusing it allocated %d bytes, want < 1 MiB", tc.name, addr, d)
			}
		}
	}

	for _, opts := range []client.Options{
		{Tenant: "big", Accel: "null", QueueCap: math.MaxInt32},
		{Tenant: "big", Accel: "null", Weight: 1 << 30},
	} {
		if _, err := client.Connect(f.gwWire, opts); !errors.Is(err, client.ErrRejected) {
			t.Fatalf("Connect with queue_cap %d, weight %d: %v, want ErrRejected", opts.QueueCap, opts.Weight, err)
		}
	}

	ok := client.Options{Tenant: "big", Accel: "null", QueueCap: 16384, Weight: 10}
	c := mustConnect(t, f.gwWire, ok)
	defer c.Close()
	in := testWords(32)
	out, res, err := c.Stream(in)
	if err != nil || res == nil || res.Code != "" {
		t.Fatalf("queue_cap 16384, weight 10: %+v %v, want a clean session", res, err)
	}
	assertEcho(t, in, out)
}
