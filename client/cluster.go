package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cohort/internal/cluster"
)

// This file is the client's side of fleet routing. The gateway proxy works
// with zero client changes — dial it like a single daemon — but it puts one
// extra hop under every Data frame. A client that opts in via
// Options.Cluster instead fetches the gateway's /ring snapshot, rebuilds the
// same consistent-hash ring locally (internal/cluster's ring is a pure
// function of the healthy member list, so client and gateway compute
// identical routes), and dials the tenant's shard directly. The gateway then
// serves only the routing metadata plane; the words never touch it.

// ClusterOptions configures client-side shard routing (Options.Cluster).
type ClusterOptions struct {
	// RingHTTP is the observability address ("host:port") serving /ring —
	// normally a cohortgw's -http address. Required.
	RingHTTP string
	// FetchTimeout bounds the ring fetch (default 2s).
	FetchTimeout time.Duration
	// Candidates is how many failover candidates an open may try, in ring
	// order (default 2). Matching the gateway's -replicas keeps direct and
	// proxied routing aligned.
	Candidates int
}

// RemoteAddr returns the address of the daemon this connection landed on —
// with Options.Cluster that is the shard chosen by the ring, not the
// gateway.
func (c *Conn) RemoteAddr() string { return c.wc.RemoteAddr().String() }

// clusterConnect performs one routed dial + Open: fetch the ring, walk the
// tenant's candidates, connect directly. fallback is Connect's addr
// argument — the gateway's wire address, dialed as an ordinary proxied
// session when the ring metadata plane is unreachable.
func clusterConnect(fallback string, opts Options) (*Conn, error) {
	co := opts.Cluster
	sn, err := fetchRing(co)
	if err != nil {
		if fallback != "" {
			// The metadata plane is down but the proxy data path may not be:
			// degrade to a proxied session rather than failing the open.
			return connect(fallback, opts)
		}
		return nil, fmt.Errorf("cohort client: fetch ring: %w", err)
	}
	n := co.Candidates
	if n <= 0 {
		n = 2
	}
	cands := sn.Route(opts.Tenant, n)
	if len(cands) == 0 {
		// No healthy shard in the snapshot. Surface it as a drain-mode
		// rejection: immediately retryable, and the retry re-fetches the ring
		// — exactly what a rolling restart of the whole fleet needs.
		return nil, fmt.Errorf("%w (%w): ring has no healthy shards", ErrDraining, ErrRejected)
	}
	var lastErr error
	for _, cand := range cands {
		c, err := connect(cand.Addr, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrAdmission) || !errors.Is(err, ErrRejected) {
			// Routing refusal (the probe loop hasn't caught up yet) or a dead
			// shard: the next candidate may take the session.
			continue
		}
		// Terminal rejection (unknown accelerator, bad CSR): every shard
		// would answer the same.
		return nil, err
	}
	return nil, lastErr
}

// fetchRing retrieves and decodes the /ring snapshot.
func fetchRing(co *ClusterOptions) (*cluster.RingSnapshot, error) {
	if co.RingHTTP == "" {
		return nil, errors.New("cohort client: ClusterOptions.RingHTTP is required")
	}
	timeout := co.FetchTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	hc := &http.Client{Timeout: timeout}
	resp, err := hc.Get("http://" + co.RingHTTP + "/ring")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ring endpoint returned status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var sn cluster.RingSnapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		return nil, fmt.Errorf("decode ring snapshot: %w", err)
	}
	return &sn, nil
}
