package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
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
// Both hops carry one session at a time, not one in all, and keep their
// connection between sessions under wire.KeepsConn. The gateway sets the
// reuse flag on every Open it forwards, keeps its legs per shard in a
// wire.Pool (which redials a reused leg that fails before its shard
// answers; the client never sees it), and serves its clients from a
// wire.ConnSet, the server side of the client hop.
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

	conns *wire.ConnSet // client connections and busy legs
	// legs holds the idle legs per shard address. An Open past the shard's
	// admission limit is refused and its leg dropped, so one shard's legs,
	// idle and busy, never outnumber the sessions that shard admits at once.
	legs wire.Pool
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
	g := &Gateway{cfg: cfg, counters: make(map[string]*shardCounters),
		conns: wire.NewConnSet(ErrGatewayClosed)}
	g.legs.Conns = g.conns
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
func (g *Gateway) Serve(ln net.Listener) error { return g.conns.Serve(ln, g.session) }

// Close stops accepting, closes every live connection and idle leg, and
// waits for the handlers to drain. It does not stop the Catalog.
func (g *Gateway) Close() error {
	g.legs.Close()
	return g.conns.Close()
}

// session routes one Open and splices its session. It reports whether the
// client connection stays open for the next Open (wire.KeepsConn).
func (g *Gateway) session(client *wire.Conn, payload []byte) bool {
	tenant, reuse, err := wire.OpenTenant(payload)
	if err != nil {
		client.W.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return false
	}
	g.opens.Add(1)

	candidates := g.cfg.Catalog.Route(tenant, g.cfg.Replicas)
	shard, l, outcome := g.admit(candidates, payload, client.W, tenant)
	switch outcome {
	case refused:
		g.rejects.Add(1)
		client.W.JSON(wire.Error, g.noShardReply())
		return false
	case forwarded, abandoned:
		return false
	}

	counters := g.counters[shard.Name]
	if counters != nil {
		counters.active.Add(1)
		defer counters.active.Add(-1)
	}
	if g.cfg.Log != nil {
		// The Open payload is still the client reader's current frame.
		var req wire.OpenRequest
		wire.DecodeOpen(payload, &req) //nolint:errcheck // OpenTenant validated it
		g.cfg.Log.Info("session routed", "tenant", tenant, "accel", req.Accel,
			"shard", shard.Name, "remote", client.RemoteAddr().String())
	}

	// Splice. The handler goroutine pumps client→shard (it owns the client
	// reader); the spawned goroutine pumps shard→client and is the only
	// writer on the client connection until it returns.
	type final struct {
		done []byte
		ok   bool
	}
	down := make(chan final, 1)
	go func() {
		done, ok := g.pumpDown(client, l.R)
		down <- final{done, ok}
	}()
	closeSent := g.pumpUp(client.R, l.W)
	if !closeSent {
		// The client vanished mid-stream: closing the shard leg makes the
		// shard kill the session, exactly as if the client had dialed it
		// directly.
		l.Close()
	}
	fin := <-down
	if !fin.ok {
		g.legs.Drop(l)
		return false
	}
	// The shard's final frame was Done. The leg is settled before the client
	// hears it, so a client that opens its next session on receipt finds the
	// leg already idle. A Done that does not decode keeps nothing.
	done := new(wire.DoneReply)
	if wire.Unmarshal(wire.Done, fin.done, done) != nil {
		done = nil
	}
	if wire.KeepsConn(true, closeSent, done) {
		g.legs.Put(l)
	} else {
		g.legs.Drop(l)
	}
	if client.W.Frame(wire.Done, fin.done) != nil || !wire.KeepsConn(reuse, closeSent, done) {
		return false
	}
	// pumpDown stopped reads on the client at the Done; the next Open needs
	// them back.
	return client.SetReadDeadline(time.Time{}) == nil
}

// admitOutcome is how an Open walk ended.
type admitOutcome int

const (
	// admitted: a shard answered OpenOK and the client has it.
	admitted admitOutcome = iota
	// refused: every candidate refused or was unreachable. The handler
	// answers with noShardReply and counts a rejection.
	refused
	// forwarded: a shard's terminal Error went to the client verbatim.
	forwarded
	// abandoned: the client hung up before OpenOK reached it, or the
	// gateway is closing. Nobody is left to answer and nothing was refused.
	abandoned
)

// admit walks the failover candidates, forwarding the raw Open payload to
// each until one answers OpenOK (whose reply is forwarded to the client
// before returning). A routing refusal — draining, admission-full, or a
// failed dial — moves to the next candidate; any other Error is forwarded
// to the client verbatim. Returns the winning shard with its leg.
func (g *Gateway) admit(candidates []Shard, open []byte, cw *wire.Writer, tenant string) (Shard, *wire.Conn, admitOutcome) {
	for i, cand := range candidates {
		l, t, reply, err := g.legs.Open(cand.Addr, g.cfg.DialTimeout, open)
		if errors.Is(err, ErrGatewayClosed) {
			return Shard{}, nil, abandoned
		}
		if err != nil {
			if g.cfg.Log != nil {
				g.cfg.Log.Warn("shard open failed", "shard", cand.Name, "err", err)
			}
			continue
		}
		if t == wire.OpenOK {
			if cw.Frame(wire.OpenOK, reply) != nil {
				g.legs.Drop(l)
				return Shard{}, nil, abandoned
			}
			if c := g.counters[cand.Name]; c != nil {
				if i > 0 {
					c.failovers.Add(1)
				}
				c.opens.Add(1)
			}
			return cand, l, admitted
		}
		// Any other reply ends the leg; reply stays readable after it.
		g.legs.Drop(l)
		if t != wire.Error {
			continue
		}
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
			continue
		}
		// Terminal refusal (unknown accel, bad request): every shard would
		// answer the same, so forward it and stop.
		cw.Frame(wire.Error, reply)
		return Shard{}, nil, forwarded
	}
	return Shard{}, nil, refused
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
// or a shard write error. Reports whether the client's CloseSend reached
// the shard leg.
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
			return sw.Frame(wire.CloseSend, nil) == nil
		default:
			return false
		}
	}
}

// pumpDown relays shard frames to the client until the shard's final frame
// (Done or Error) or a dead leg. An Error is relayed and closes the client
// connection. A Done is not relayed: pumpDown returns a copy of its payload
// with ok set, for the handler to relay once the leg is settled. A shard
// connection lost before its final frame becomes a synthesized CodeKilled
// Error — the client's typed, replay-retryable signal — rather than a bare
// reset.
func (g *Gateway) pumpDown(client *wire.Conn, sr *wire.Reader) (done []byte, ok bool) {
	for {
		t, ws, payload, err := sr.NextData()
		if err != nil {
			client.W.JSON(wire.Error, wire.ErrorReply{
				Message: "shard connection lost mid-stream", Code: wire.CodeKilled,
			})
			client.Close()
			return nil, false
		}
		switch t {
		case wire.Data:
			if client.W.WordsN(ws) != nil {
				client.Close()
				return nil, false
			}
		case wire.Done:
			// A Done with a Code (quota) can precede the client's CloseSend:
			// stop the upstream pump if it is still reading the client.
			client.SetReadDeadline(time.Unix(1, 0))
			return bytes.Clone(payload), true
		case wire.Error:
			client.W.Frame(t, payload)
			// Mirror the shard: the final frame closes the client connection
			// so it is reliably the last thing the client sees.
			client.Close()
			return nil, false
		default:
			// Telemetry and any future server-side control frames relay as-is.
			if client.W.Frame(t, payload) != nil {
				client.Close()
				return nil, false
			}
		}
	}
}
