package cluster

import (
	"bytes"
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
// Both hops carry one session at a time, not one in all, under one rule: a
// connection stays open after a session only if its Open set the reuse
// flag, the client's CloseSend went through, and the final frame was a Done
// that keeps the connection (no Code; see wire.DoneKeepsConn). The gateway
// sets the flag on every Open it forwards; after such a session the leg
// goes onto its shard's stack of idle legs and the next Open for that shard
// takes it instead of dialling. A reused leg that fails before its shard
// answers the Open — the shard restarted or quiesced — is closed and the
// shard dialled afresh; the client never sees it. On the client hop the
// gateway is the server: a client connection whose Open set the flag loops
// back for the client's next Open under the same rule.
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

// leg is one gateway→shard connection with its framing state.
type leg struct {
	c net.Conn
	r *wire.Reader
	w *wire.Writer
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
	conns  map[net.Conn]struct{} // client connections and busy legs
	// idle holds, per shard, the legs between sessions, newest last. It
	// needs no cap of its own: a leg is dialled only when its shard's stack
	// is empty, and an Open past the shard's admission limit is refused and
	// its leg dropped, so one shard's legs, idle and busy together, never
	// outnumber the sessions that shard admits at once.
	idle map[string][]*leg
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
		conns: make(map[net.Conn]struct{}), idle: make(map[string][]*leg)}
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

// Close stops accepting, closes every live connection and idle leg, and
// waits for the handlers to drain. It does not stop the Catalog.
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.closed = true
	ln := g.ln
	for c := range g.conns {
		c.Close()
	}
	for shard, legs := range g.idle {
		for _, l := range legs {
			l.c.Close()
		}
		delete(g.idle, shard)
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

// popIdle takes the newest idle leg to shard, tracked for Close teardown,
// or returns nil.
func (g *Gateway) popIdle(shard string) *leg {
	g.mu.Lock()
	defer g.mu.Unlock()
	legs := g.idle[shard]
	if g.closed || len(legs) == 0 {
		return nil
	}
	l := legs[len(legs)-1]
	legs[len(legs)-1] = nil
	g.idle[shard] = legs[:len(legs)-1]
	g.conns[l.c] = struct{}{}
	return l
}

// park puts a leg whose session ended cleanly back on its shard's stack, or
// closes it when the gateway is closing.
func (g *Gateway) park(shard string, l *leg) {
	g.mu.Lock()
	delete(g.conns, l.c)
	if g.closed {
		g.mu.Unlock()
		l.c.Close()
		return
	}
	g.idle[shard] = append(g.idle[shard], l)
	g.mu.Unlock()
}

// drop closes a leg for good.
func (g *Gateway) drop(l *leg) {
	g.forget(l.c)
	l.c.Close()
}

// dial opens a fresh leg to sh. It fails with ErrGatewayClosed once the
// gateway is closing.
func (g *Gateway) dial(sh Shard) (*leg, error) {
	c, err := net.DialTimeout("tcp", sh.Addr, g.cfg.DialTimeout)
	if err != nil {
		if g.cfg.Log != nil {
			g.cfg.Log.Warn("shard dial failed", "shard", sh.Name, "err", err)
		}
		return nil, err
	}
	if !g.track(c) {
		c.Close()
		return nil, ErrGatewayClosed
	}
	return &leg{c: c, r: wire.NewReader(c), w: wire.NewWriter(c)}, nil
}

// handle owns one client connection: route each Open, then splice. A
// connection whose Open asked for reuse loops back for the next Open after
// a clean Done (see session); every other ending closes it.
func (g *Gateway) handle(client net.Conn) {
	defer g.wg.Done()
	defer g.forget(client)
	defer client.Close()

	cr := wire.NewReader(client)
	cw := wire.NewWriter(client)
	for {
		t, payload, err := cr.Next()
		if err != nil || t != wire.Open {
			return // half-open probe, or the client left; not worth an Error frame
		}
		if !g.session(client, cr, cw, payload) {
			return
		}
	}
}

// session routes one Open and splices its session. It reports whether the
// client connection stays open for the next Open: the Open asked for
// reuse, the client's CloseSend reached the shard, and the shard's Done
// keeps the connection.
func (g *Gateway) session(client net.Conn, cr *wire.Reader, cw *wire.Writer, payload []byte) bool {
	tenant, err := wire.OpenTenant(payload)
	if err != nil {
		cw.JSON(wire.Error, wire.ErrorReply{Message: err.Error(), Code: wire.CodeBadRequest})
		return false
	}
	reuse := wire.OpenReuse(payload)
	g.opens.Add(1)

	candidates := g.cfg.Catalog.Route(tenant, g.cfg.Replicas)
	shard, l, outcome := g.admit(candidates, payload, cw, tenant)
	switch outcome {
	case refused:
		g.rejects.Add(1)
		cw.JSON(wire.Error, g.noShardReply())
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
		done, ok := g.pumpDown(client, cw, l.r)
		down <- final{done, ok}
	}()
	closeSent := g.pumpUp(cr, l.w)
	if !closeSent {
		// The client vanished mid-stream: closing the shard leg makes the
		// shard kill the session, exactly as if the client had dialed it
		// directly.
		l.c.Close()
	}
	fin := <-down
	if !fin.ok {
		g.drop(l)
		return false
	}
	// The shard's final frame was Done; it kept the leg only if it had read
	// CloseSend and the Done keeps the connection. The leg is settled before
	// the client hears the Done, so a client that opens its next session on
	// receipt finds the leg already idle.
	keep := closeSent && wire.DoneKeepsConn(fin.done)
	if keep {
		g.park(shard.Name, l)
	} else {
		g.drop(l)
	}
	if cw.Frame(wire.Done, fin.done) != nil || !keep || !reuse {
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
func (g *Gateway) admit(candidates []Shard, open []byte, cw *wire.Writer, tenant string) (Shard, *leg, admitOutcome) {
	for i, cand := range candidates {
		l, t, reply, err := g.openLeg(cand, open)
		if errors.Is(err, ErrGatewayClosed) {
			return Shard{}, nil, abandoned
		}
		if err != nil {
			continue
		}
		switch t {
		case wire.OpenOK:
			if cw.Frame(wire.OpenOK, reply) != nil {
				g.drop(l)
				return Shard{}, nil, abandoned
			}
			if c := g.counters[cand.Name]; c != nil {
				if i > 0 {
					c.failovers.Add(1)
				}
				c.opens.Add(1)
			}
			return cand, l, admitted
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
				g.drop(l)
				continue
			}
			// Terminal refusal (unknown accel, bad request): every shard
			// would answer the same, so forward it and stop.
			cw.Frame(wire.Error, reply)
			g.drop(l)
			return Shard{}, nil, forwarded
		default:
			g.drop(l)
			continue
		}
	}
	return Shard{}, nil, refused
}

// openLeg sends the Open, with its reuse flag set, on a leg to sh and reads
// the shard's reply, which is valid until the leg's next read. It takes an
// idle leg first. A reused leg that fails before the reply (write error,
// EOF, reset) is closed and sh dialled afresh: that is neither a refusal nor
// a failover.
func (g *Gateway) openLeg(sh Shard, open []byte) (*leg, wire.Type, []byte, error) {
	l := g.popIdle(sh.Name)
	for {
		reused := l != nil
		if !reused {
			var err error
			if l, err = g.dial(sh); err != nil {
				return nil, 0, nil, err
			}
		}
		err := l.w.ReuseOpen(open)
		if err == nil {
			var t wire.Type
			var reply []byte
			if t, reply, err = l.r.Next(); err == nil {
				return l, t, reply, nil
			}
		}
		g.drop(l)
		if !reused {
			return nil, 0, nil, err
		}
		l = nil
	}
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
func (g *Gateway) pumpDown(client net.Conn, cw *wire.Writer, sr *wire.Reader) (done []byte, ok bool) {
	for {
		t, ws, payload, err := sr.NextData()
		if err != nil {
			cw.JSON(wire.Error, wire.ErrorReply{
				Message: "shard connection lost mid-stream", Code: wire.CodeKilled,
			})
			client.Close()
			return nil, false
		}
		switch t {
		case wire.Data:
			if cw.WordsN(ws) != nil {
				client.Close()
				return nil, false
			}
		case wire.Done:
			// A Done with a Code (quota) can precede the client's CloseSend:
			// stop the upstream pump if it is still reading the client.
			client.SetReadDeadline(time.Unix(1, 0))
			return bytes.Clone(payload), true
		case wire.Error:
			cw.Frame(t, payload)
			// Mirror the shard: the final frame closes the client connection
			// so it is reliably the last thing the client sees.
			client.Close()
			return nil, false
		default:
			// Telemetry and any future server-side control frames relay as-is.
			if cw.Frame(t, payload) != nil {
				client.Close()
				return nil, false
			}
		}
	}
}
