package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync/atomic"

	"cohort"
	"cohort/internal/wire"
)

// This file is the fleet's wire-protocol front door: placement, not a
// splice. A client dials the gateway exactly as it would dial a single
// cohortd. The gateway reads the Open, routes the tenant key through the
// catalog's ring, and answers with a Redirect naming the tenant's candidate
// shards in ring order. The client then opens its session at the shard
// itself, so no Data frame ever crosses the gateway, and a shard sees
// exactly the frames a direct client sends it.
//
// Failover lives in the client's walk of the candidates: if the owner shard
// is draining, admission-full, or undialable, the client tries the next
// candidate. A shard lost mid-stream surfaces to its client as ErrKilled,
// the same typed, replay-retryable signal a killed session produces, and
// the replay's Open comes back here to be placed again.
//
// The client hop keeps its connection between Opens: the gateway serves it
// from a wire.ConnSet and keeps it after each Redirect whose Open set the
// reuse flag (wire.KeepsConn states the rule).

// maxReplicas is the most candidates one Redirect carries (the wire
// package's bound on a Redirect).
const maxReplicas = 8

// GatewayConfig configures a Gateway. Catalog is required.
type GatewayConfig struct {
	// Catalog supplies routing decisions and shard addresses.
	Catalog *Catalog
	// Replicas is how many ring candidates a Redirect names (default 2, at
	// most 8).
	Replicas int
	// Registry, when set, receives the gateway's routing counters as a "gw"
	// source.
	Registry *cohort.Registry
	// Log, when set, receives one record per routed Open.
	Log *slog.Logger
}

// Gateway accepts wire-protocol connections and answers each Open with a
// Redirect to the shards the catalog's ring picks for its tenant.
type Gateway struct {
	cfg     GatewayConfig
	opens   atomic.Uint64 // Opens received
	rejects atomic.Uint64 // Opens no shard would take
	conns   *wire.ConnSet // client connections
}

// NewGateway builds a gateway over cfg.Catalog's shard set.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("cluster: gateway needs a catalog")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > maxReplicas {
		return nil, fmt.Errorf("cluster: gateway replicas %d, at most %d", cfg.Replicas, maxReplicas)
	}
	g := &Gateway{cfg: cfg, conns: wire.NewConnSet(ErrGatewayClosed)}
	if reg := cfg.Registry; reg != nil {
		reg.Register("gw", func() []cohort.Metric {
			return []cohort.Metric{
				{Name: "opens", Value: g.opens.Load()},
				{Name: "rejected", Value: g.rejects.Load()},
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

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain. It does not stop the Catalog.
func (g *Gateway) Close() error { return g.conns.Close() }

// session places one Open: it answers with a Redirect to the tenant's ring
// candidates, or with noShardReply when no shard is healthy. It reports
// whether the client connection stays open for the next Open: after a
// Redirect whose Open set the reuse flag.
func (g *Gateway) session(client *wire.Conn, payload []byte) bool {
	tenant, reuse, err := wire.OpenTenant(payload)
	if err != nil {
		client.W.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return false
	}
	g.opens.Add(1)
	candidates := g.cfg.Catalog.Route(tenant, g.cfg.Replicas)
	if len(candidates) == 0 {
		g.rejects.Add(1)
		client.W.JSON(wire.Error, g.noShardReply())
		return false
	}
	var addrs [maxReplicas]string
	for i, sh := range candidates {
		addrs[i] = sh.Addr
	}
	if g.cfg.Log != nil {
		g.cfg.Log.Info("session routed", "tenant", tenant, "shard", candidates[0].Name,
			"remote", client.RemoteAddr().String())
	}
	return client.W.Redirect(addrs[:len(candidates)]) == nil && reuse
}

// noShardReply picks the rejection code when no shard is healthy: if at
// least one is draining, the whole fleet is rolling — tell the client to
// retry immediately (CodeDraining); otherwise it is a capacity problem
// (CodeAdmission, retry with backoff).
func (g *Gateway) noShardReply() wire.ErrorReply {
	for _, sh := range g.cfg.Catalog.Snapshot().Shards {
		if sh.State == StateDraining {
			return wire.ErrorReply{Message: "no healthy shard: the fleet is draining", Code: wire.CodeDraining}
		}
	}
	return wire.ErrorReply{Message: "no healthy shard", Code: wire.CodeAdmission}
}
