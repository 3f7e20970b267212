package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/internal/wire"
)

// This file is the fleet's wire-protocol front door. A client dials the
// gateway exactly as it would dial a single cohortd; the gateway reads the
// Open, routes the tenant key through the catalog's ring, and splices the
// connection to the chosen shard, relaying frames in both directions with
// the zero-copy Data codecs (pooled read buffers in, writev scatter-gather
// out — a Data frame transits the gateway without a joining copy).
//
// Failover lives in the Open walk, not the splice: if the owner shard is
// draining, admission-full, or undialable, the gateway tries the next ring
// candidate before the client hears anything. Once a session is spliced its
// fate is tied to its shard — a shard lost mid-stream surfaces to the client
// as a CodeKilled Error, the same typed, replay-retryable signal a killed
// single-daemon session produces, so the client's existing reconnect path
// (replay residual input on a fresh session) is the whole failover story.

// GatewayConfig configures a Gateway. Catalog is required.
type GatewayConfig struct {
	// Catalog supplies routing decisions and shard addresses.
	Catalog *Catalog
	// Replicas is how many ring candidates an Open may try (default 2).
	Replicas int
	// DialTimeout bounds each shard dial (default 2s).
	DialTimeout time.Duration
	// Registry, when set, receives the gateway's routing counters: a "gw"
	// source plus one labeled "gw/<shard>" source per configured shard.
	Registry *cohort.Registry
	// Log, when set, receives connection-lifecycle records.
	Log *slog.Logger
}

// shardCounters is one shard's routing tallies.
type shardCounters struct {
	opens     atomic.Uint64 // sessions admitted on this shard via the gateway
	failovers atomic.Uint64 // admissions that landed here after an earlier candidate refused
	active    atomic.Int64  // live proxied sessions
}

// Gateway accepts wire-protocol connections and proxies each one to a shard
// chosen by the catalog's ring.
type Gateway struct {
	cfg      GatewayConfig
	counters map[string]*shardCounters // keyed by shard name; static membership
	opens    atomic.Uint64             // Opens received
	rejects  atomic.Uint64             // Opens no shard would take
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]struct{}
}

// NewGateway builds a gateway over cfg.Catalog's shard set.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("cluster: gateway needs a catalog")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	g := &Gateway{cfg: cfg, counters: make(map[string]*shardCounters), conns: make(map[net.Conn]struct{})}
	for _, sh := range cfg.Catalog.Snapshot().Shards {
		sc := &shardCounters{}
		g.counters[sh.Name] = sc
		if reg := cfg.Registry; reg != nil {
			name := sh.Name
			reg.RegisterLabeled("gw/"+name, []cohort.Label{{Key: "shard", Value: name}},
				func() []cohort.Metric {
					return []cohort.Metric{
						{Name: "opens", Value: sc.opens.Load()},
						{Name: "failovers", Value: sc.failovers.Load()},
						{Name: "active", Value: uint64(sc.active.Load())},
					}
				})
		}
	}
	if reg := cfg.Registry; reg != nil {
		reg.Register("gw", func() []cohort.Metric {
			var active int64
			for _, sc := range g.counters {
				active += sc.active.Load()
			}
			return []cohort.Metric{
				{Name: "opens", Value: g.opens.Load()},
				{Name: "rejected", Value: g.rejects.Load()},
				{Name: "active", Value: uint64(active)},
			}
		})
	}
	return g, nil
}

// ErrGatewayClosed is returned by Serve after Close.
var ErrGatewayClosed = errors.New("cluster: gateway closed")

// Serve accepts connections on ln until Close. Always returns a non-nil
// error: ErrGatewayClosed after a clean Close, the accept error otherwise.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return ErrGatewayClosed
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return ErrGatewayClosed
			}
			return err
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			c.Close()
			return ErrGatewayClosed
		}
		g.conns[c] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.handle(c)
	}
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain. It does not stop the Catalog.
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.closed = true
	ln := g.ln
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) forget(c net.Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

// track registers a shard connection for Close teardown.
func (g *Gateway) track(c net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.conns[c] = struct{}{}
	return true
}

// handle owns one client connection: route the Open, then splice.
func (g *Gateway) handle(client net.Conn) {
	defer g.wg.Done()
	defer g.forget(client)
	defer client.Close()

	cr := wire.NewReader(client)
	cw := wire.NewWriter(client)

	t, payload, err := cr.Next()
	if err != nil || t != wire.Open {
		return // half-open probe; not worth an Error frame
	}
	var req wire.OpenRequest
	if err := wire.Unmarshal(t, payload, &req); err != nil {
		cw.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return
	}
	g.opens.Add(1)

	candidates := g.cfg.Catalog.Route(req.Tenant, g.cfg.Replicas)
	shard, sc, sr, sw, lastRefusal := g.admit(candidates, payload, cw, req.Tenant)
	if sc == nil {
		if lastRefusal != nil {
			// A shard answered with a terminal (non-routing) Error and it was
			// already forwarded verbatim; nothing more to say.
			return
		}
		g.rejects.Add(1)
		cw.JSON(wire.Error, g.noShardReply())
		return
	}
	defer sc.Close()
	defer g.forget(sc)

	counters := g.counters[shard.Name]
	if counters != nil {
		counters.active.Add(1)
		defer counters.active.Add(-1)
	}
	if g.cfg.Log != nil {
		g.cfg.Log.Info("session routed", "tenant", req.Tenant, "accel", req.Accel,
			"shard", shard.Name, "remote", client.RemoteAddr().String())
	}

	// Splice. The handler goroutine pumps client→shard (it owns the client
	// reader); the spawned goroutine pumps shard→client and is the only
	// writer on the client connection from here on.
	downDone := make(chan struct{})
	go func() {
		defer close(downDone)
		g.pumpDown(client, cw, sr)
	}()
	closeSent := g.pumpUp(cr, sw)
	if !closeSent {
		// The client vanished mid-stream: closing the shard leg makes the
		// shard kill the session, exactly as if the client had dialed it
		// directly.
		sc.Close()
	}
	<-downDone
}

// admit walks the failover candidates, forwarding the raw Open payload to
// each until one answers OpenOK (whose reply is forwarded to the client
// before returning). A routing refusal — draining, admission-full, or a
// failed dial — moves to the next candidate; any other Error is forwarded
// to the client verbatim and reported via lastRefusal != nil with a nil
// conn. Returns the winning shard with its live conn, reader, and writer.
func (g *Gateway) admit(candidates []Shard, open []byte, cw *wire.Writer, tenant string) (
	shard Shard, conn net.Conn, sr *wire.Reader, sw *wire.Writer, terminal error) {
	for i, cand := range candidates {
		sc, err := net.DialTimeout("tcp", cand.Addr, g.cfg.DialTimeout)
		if err != nil {
			if g.cfg.Log != nil {
				g.cfg.Log.Warn("shard dial failed", "shard", cand.Name, "err", err)
			}
			continue
		}
		if !g.track(sc) {
			sc.Close()
			return Shard{}, nil, nil, nil, nil
		}
		w := wire.NewWriter(sc)
		r := wire.NewReader(sc)
		var t wire.Type
		var reply []byte
		if err := w.Frame(wire.Open, open); err == nil {
			t, reply, err = r.Next()
		}
		if err != nil {
			g.forget(sc)
			sc.Close()
			continue
		}
		switch t {
		case wire.OpenOK:
			if cw.Frame(wire.OpenOK, reply) != nil {
				g.forget(sc)
				sc.Close()
				return Shard{}, nil, nil, nil, nil
			}
			if i > 0 {
				if c := g.counters[cand.Name]; c != nil {
					c.failovers.Add(1)
				}
			}
			if c := g.counters[cand.Name]; c != nil {
				c.opens.Add(1)
			}
			return cand, sc, r, w, nil
		case wire.Error:
			var er wire.ErrorReply
			code := ""
			if wire.Unmarshal(t, reply, &er) == nil {
				code = er.Code
			}
			if code == wire.CodeDraining || code == wire.CodeAdmission {
				// Routing refusal: this shard is full or leaving; the next
				// candidate may take the session.
				if g.cfg.Log != nil {
					g.cfg.Log.Info("shard refused open", "shard", cand.Name,
						"tenant", tenant, "code", code)
				}
				g.forget(sc)
				sc.Close()
				continue
			}
			// Terminal refusal (unknown accel, bad request): every shard
			// would answer the same, so forward it and stop.
			cw.Frame(wire.Error, reply)
			g.forget(sc)
			sc.Close()
			return Shard{}, nil, nil, nil, fmt.Errorf("cluster: shard %s: %s", cand.Name, er.Message)
		default:
			g.forget(sc)
			sc.Close()
			continue
		}
	}
	return Shard{}, nil, nil, nil, nil
}

// noShardReply picks the rejection code when every candidate refused: if the
// fleet has no healthy member but at least one draining, the whole fleet is
// rolling — tell the client to retry immediately (CodeDraining); otherwise
// it is a capacity problem (CodeAdmission, retry with backoff).
func (g *Gateway) noShardReply() wire.ErrorReply {
	sn := g.cfg.Catalog.Snapshot()
	healthy, draining := 0, 0
	for _, sh := range sn.Shards {
		switch sh.State {
		case StateHealthy:
			healthy++
		case StateDraining:
			draining++
		}
	}
	if healthy == 0 && draining > 0 {
		return wire.ErrorReply{Message: "all shards draining", Code: wire.CodeDraining}
	}
	return wire.ErrorReply{Message: "no shard accepted the session", Code: wire.CodeAdmission}
}

// pumpUp relays client frames to the shard until CloseSend, a client error,
// or a shard write error. Reports whether the client ended its stream
// deliberately (CloseSend relayed).
func (g *Gateway) pumpUp(cr *wire.Reader, sw *wire.Writer) bool {
	for {
		t, ws, _, err := cr.NextData()
		if err != nil {
			return false
		}
		switch t {
		case wire.Data:
			if sw.WordsN(ws) != nil {
				return false
			}
		case wire.CloseSend:
			// Final client frame: relay and stop reading. The shard leg stays
			// open for the result stream the downstream pump is relaying.
			sw.Frame(wire.CloseSend, nil)
			return true
		default:
			return false
		}
	}
}

// pumpDown relays shard frames to the client until the shard's final frame
// (Done or Error) or a dead leg. A shard connection lost before its final
// frame becomes a synthesized CodeKilled Error — the client's typed,
// replay-retryable signal — rather than a bare reset.
func (g *Gateway) pumpDown(client net.Conn, cw *wire.Writer, sr *wire.Reader) {
	for {
		t, ws, payload, err := sr.NextData()
		if err != nil {
			cw.JSON(wire.Error, wire.ErrorReply{
				Message: "shard connection lost mid-stream", Code: wire.CodeKilled,
			})
			client.Close()
			return
		}
		switch t {
		case wire.Data:
			if cw.WordsN(ws) != nil {
				client.Close()
				return
			}
		case wire.Done, wire.Error:
			cw.Frame(t, payload)
			// Mirror the shard: the final frame closes the client connection
			// so it is reliably the last thing the client sees.
			client.Close()
			return
		default:
			// Telemetry and any future server-side control frames relay as-is.
			if cw.Frame(t, payload) != nil {
				client.Close()
				return
			}
		}
	}
}
