package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// This file is the fleet's membership authority: a static shard list (from
// -shards) overlaid with live health state from an HTTP probe loop against
// each shard's /healthz. State transitions rebuild the healthy-only routing
// ring and emit shard_up / shard_drain / shard_down events, so the gateway's
// routing decisions, the /ring snapshot, and the operator's /events tail all
// move together, from the same observation.

// Shard states as reported in /ring documents.
const (
	StateHealthy  = "healthy"
	StateDraining = "draining"
	StateDown     = "down"
)

// Shard is one fleet member's static identity: a routing name, the wire
// address sessions dial, and the observability address the catalog probes.
type Shard struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	HTTP string `json:"http,omitempty"`
}

// EventSink receives the catalog's shard state transitions. *telem.Log
// satisfies it; declared here (as in internal/sched) so cluster does not
// import the telemetry layer.
type EventSink interface {
	Emit(typ, tenant string, session uint64, detail string)
}

// Catalog event spellings; the Catalog is the only emitter of them.
const (
	eventShardUp    = "shard_up"
	eventShardDrain = "shard_drain"
	eventShardDown  = "shard_down"
)

// CatalogConfig configures a Catalog. Shards is required; everything else
// has serving-friendly defaults.
type CatalogConfig struct {
	// Shards is the static fleet membership.
	Shards []Shard
	// VNodes is the per-shard virtual-node count (default DefaultVNodes).
	VNodes int
	// Interval is the probe period (default 1s).
	Interval time.Duration
	// Timeout bounds each probe request (default Interval, capped at 2s).
	Timeout time.Duration
	// Events receives shard_up/shard_drain/shard_down transitions.
	Events EventSink
	// Log, when set, mirrors transitions to the process log.
	Log *slog.Logger
}

// shardState is one shard's live row, guarded by Catalog.mu.
type shardState struct {
	Shard
	state   string
	lastErr string
	// health is the shard's last good /healthz body, re-served verbatim in
	// the gateway's merged health document so per-shard detail (engine
	// queues, SLO verdicts) survives aggregation.
	health json.RawMessage
}

// Catalog tracks fleet membership and health, and owns the routing ring.
// Start launches the probe loop; Route serves the gateway's routing
// decisions and Snapshot the /ring view, both from the latest observation.
type Catalog struct {
	cfg    CatalogConfig
	client *http.Client

	mu      sync.Mutex
	shards  []*shardState // static order, as configured
	ring    *Ring         // healthy shards only
	version uint64        // bumps on every membership rebuild

	stop chan struct{}
	done chan struct{}
}

// NewCatalog builds a catalog over cfg.Shards. Every shard starts in
// StateDown until its first successful probe — routing to an unobserved
// shard would turn a cold start into client-visible dial failures.
func NewCatalog(cfg CatalogConfig) (*Catalog, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: catalog needs at least one shard")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
		if cfg.Timeout > 2*time.Second {
			cfg.Timeout = 2 * time.Second
		}
	}
	c := &Catalog{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		ring:   NewRing(nil, cfg.VNodes),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := make(map[string]struct{}, len(cfg.Shards))
	for _, sh := range cfg.Shards {
		if sh.Name == "" || sh.Addr == "" {
			return nil, fmt.Errorf("cluster: shard %+v needs a name and wire address", sh)
		}
		if _, dup := seen[sh.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = struct{}{}
		c.shards = append(c.shards, &shardState{Shard: sh, state: StateDown, lastErr: "not yet probed"})
	}
	return c, nil
}

// Start runs one synchronous probe round (so the first routing decision
// after Start sees real health, not the all-down cold state) and then the
// background probe loop. Stop ends it.
func (c *Catalog) Start() {
	c.probeAll()
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit.
func (c *Catalog) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// healthzBody is the slice of a shard's /healthz document the catalog
// interprets; the rest is kept raw for fleet aggregation.
type healthzBody struct {
	Status string `json:"status"`
}

// probeResult is one shard's observation from one probe round.
type probeResult struct {
	state  string
	err    string
	health json.RawMessage
}

// probeAll probes every shard concurrently and applies the observations in
// one rebuild, so a routing decision never sees a half-updated round.
func (c *Catalog) probeAll() {
	results := make([]probeResult, len(c.shards))
	var wg sync.WaitGroup
	for i, ss := range c.shards {
		wg.Add(1)
		go func(i int, target Shard) {
			defer wg.Done()
			results[i] = c.probe(target)
		}(i, ss.Shard)
	}
	wg.Wait()
	c.apply(results)
}

// probe observes one shard via its /healthz. A shard with no observability
// address can never be observed healthy — better to refuse configuration
// half-measures at probe time than to route blind.
func (c *Catalog) probe(sh Shard) (o probeResult) {
	if sh.HTTP == "" {
		o.state, o.err = StateDown, "no observability address configured"
		return o
	}
	resp, err := c.client.Get("http://" + sh.HTTP + "/healthz")
	if err != nil {
		o.state, o.err = StateDown, err.Error()
		return o
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		o.state, o.err = StateDown, err.Error()
		return o
	}
	var hb healthzBody
	if jsonErr := json.Unmarshal(body, &hb); jsonErr != nil {
		o.state, o.err = StateDown, "bad healthz body: "+jsonErr.Error()
		return o
	}
	o.health = json.RawMessage(body)
	switch {
	case resp.StatusCode != http.StatusOK:
		o.state, o.err = StateDown, fmt.Sprintf("healthz status %d (%s)", resp.StatusCode, hb.Status)
	case hb.Status == "draining":
		o.state = StateDraining
	default:
		o.state = StateHealthy
	}
	return o
}

// apply installs one probe round's observations, rebuilding the ring and
// emitting transition events for every shard whose state changed.
func (c *Catalog) apply(results []probeResult) {
	type transition struct {
		typ, name, detail string
	}
	var emits []transition

	c.mu.Lock()
	changed := false
	healthy := make([]string, 0, len(c.shards))
	for i, ss := range c.shards {
		o := results[i]
		if o.health != nil {
			ss.health = o.health
		}
		if o.state != ss.state {
			changed = true
			typ := ""
			switch o.state {
			case StateHealthy:
				typ = eventShardUp
			case StateDraining:
				typ = eventShardDrain
			case StateDown:
				typ = eventShardDown
			}
			detail := fmt.Sprintf("%s -> %s", ss.state, o.state)
			if o.err != "" {
				detail += ": " + o.err
			}
			emits = append(emits, transition{typ, ss.Name, detail})
		}
		ss.state, ss.lastErr = o.state, o.err
		if o.state == StateHealthy {
			healthy = append(healthy, ss.Name)
		}
	}
	if changed {
		c.ring = NewRing(healthy, c.cfg.VNodes)
		c.version++
	}
	log := c.cfg.Log
	c.mu.Unlock()

	for _, e := range emits {
		if c.cfg.Events != nil {
			c.cfg.Events.Emit(e.typ, e.name, 0, e.detail)
		}
		if log != nil {
			log.Info("shard transition", "shard", e.name, "event", e.typ, "detail", e.detail)
		}
	}
}

// Route returns up to n candidate shards for key in failover order, over
// the healthy members only.
func (c *Catalog) Route(key string, n int) []Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.ring.LookupN(key, n)
	out := make([]Shard, 0, len(names))
	for _, name := range names {
		for _, ss := range c.shards {
			if ss.Name == name {
				out = append(out, ss.Shard)
				break
			}
		}
	}
	return out
}

// Snapshot returns the /ring document: the whole fleet with live state.
func (c *Catalog) Snapshot() RingSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	sn := RingSnapshot{Version: c.version, VNodes: c.cfg.VNodes}
	for _, ss := range c.shards {
		sn.Shards = append(sn.Shards, ShardInfo{
			Name: ss.Name, Addr: ss.Addr, HTTP: ss.HTTP,
			State: ss.state, Err: ss.lastErr,
		})
	}
	return sn
}

// shardRows returns a copy of the live shard state for fleet aggregation.
func (c *Catalog) shardRows() []shardRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows := make([]shardRow, 0, len(c.shards))
	for _, ss := range c.shards {
		rows = append(rows, shardRow{
			Shard: ss.Shard, State: ss.state, Err: ss.lastErr, Health: ss.health,
		})
	}
	return rows
}

// shardRow is one shard's live state handed to the fleet aggregator.
type shardRow struct {
	Shard
	State  string
	Err    string
	Health json.RawMessage
}
