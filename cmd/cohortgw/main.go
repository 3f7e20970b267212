// Command cohortgw is the fleet front door for a sharded cohortd
// deployment: a wire-protocol gateway that places every session on a shard
// via a consistent-hash ring over tenant keys, answering each Open with a
// Redirect to the tenant's candidate shards, and aggregates the fleet's
// observability planes. No session's words pass through it.
//
// Shards are declared statically with -shards and probed continuously over
// their /healthz endpoints: an unreachable shard or one answering 503 is
// ejected from the ring ("down"), a shard reporting status "draining" is
// ejected while its in-flight sessions finish ("draining") — each
// transition lands in the gateway's /events ring as shard_up / shard_drain
// / shard_down. A Redirect names two candidates in ring order: a client
// whose owner shard refuses (draining, admission full) or cannot be dialed
// opens at the next one, and a shard lost mid-stream surfaces to its client
// as a typed ErrKilled that the client's reconnect path replays.
//
// The -http plane serves the fleet merged: /healthz (per-shard rows plus a
// fleet verdict — unhealthy only when no shard is routable), /sessions and
// /stats/slo (every shard's document, attributed), /ring (the routing
// snapshot with each shard's probe state, an operator's view of placement),
// /events and /metrics (the gateway's Open and rejection counters).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"cohort"
	"cohort/internal/cluster"
	"cohort/internal/obsrv"
	"cohort/internal/telem"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7410", "serve the wire protocol on this TCP address")
		httpAddr = flag.String("http", "", "serve the merged fleet observability plane on this address (e.g. :9120)")
		shards   = flag.String("shards", "", "comma-separated shard list: [name=]wireaddr@httpaddr,... (required)")
		probe    = flag.Duration("probe", time.Second, "shard health-probe period")
		logLevel = flag.String("log-level", "info", "log floor: debug, info, warn or error")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "cohortgw: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	members, err := cluster.ParseShards(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cohortgw: %v (use -shards wireaddr@httpaddr,...)\n", err)
		os.Exit(2)
	}
	if err := run(members, logger, *listen, *httpAddr, *probe); err != nil {
		logger.Error("cohortgw exiting", "err", err)
		os.Exit(1)
	}
}

// Fixed routing knobs: every deployment and test runs these values.
const (
	replicas  = 2               // ring candidates a Redirect names (failover depth)
	fetchTO   = 2 * time.Second // per-shard fetch timeout for the merged documents
	eventsCap = 1024            // structured event ring capacity (/events)
)

func run(members []cluster.Shard, logger *slog.Logger, listen, httpAddr string, probe time.Duration) error {
	reg := cohort.NewRegistry()
	cohort.RegisterBuildInfo(reg, "build")
	events := telem.NewLog(eventsCap, logger)

	cat, err := cluster.NewCatalog(cluster.CatalogConfig{
		Shards: members, Interval: probe,
		Events: events, Log: logger,
	})
	if err != nil {
		return err
	}
	cat.Start()

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Catalog: cat, Replicas: replicas, Registry: reg, Log: logger,
	})
	if err != nil {
		cat.Stop()
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		cat.Stop()
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(ln) }()

	fleet := cluster.NewFleet(cat, fetchTO)
	var web *obsrv.Server
	if httpAddr != "" {
		web = obsrv.New(obsrv.Options{
			MetricsText: reg.WritePrometheus,
			Health:      fleet.Health,
			Events:      func(since uint64, max int) any { return events.PageSince(since, max) },
			Docs: map[string]func() any{
				"/sessions":  fleet.Sessions,
				"/stats/slo": fleet.SLO,
				"/ring":      func() any { return cat.Snapshot() },
			},
		})
		if err := web.Serve(httpAddr); err != nil {
			gw.Close()
			cat.Stop()
			return err
		}
		logger.Info("fleet observability plane up", "addr", web.Addr(),
			"endpoints", strings.Join(web.Routes(), " "))
	}

	obsrv.AwaitShutdown(
		fmt.Sprintf("routing %d shards on %s (ring: %d vnodes, %d-way failover) until interrupted (Ctrl-C)",
			len(members), ln.Addr(), cluster.DefaultVNodes, replicas),
		func() { gw.Close() },
		func() { cat.Stop() },
		func() {
			if web != nil {
				web.Close()
			}
		},
	)
	if err := <-serveErr; !errors.Is(err, cluster.ErrGatewayClosed) {
		return err
	}
	return nil
}
