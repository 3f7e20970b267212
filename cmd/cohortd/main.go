// Command cohortd is the Cohort serving daemon: a fixed pool of accelerator
// engine workers, time-multiplexed across remote tenant sessions by the
// weighted-fair scheduler in internal/sched, fronted by the framed TCP
// protocol in internal/wire. A connection carries one session at a time,
// one after another — a client's as a cohortgw leg's; connect with the
// cohort/client package.
//
// The observability plane (-http) serves /metrics with one tenant-labeled
// source per tenant (its lifetime counters and stage-latency histograms),
// /healthz with a degraded-but-alive verdict over the scheduler's
// fault-containment counters plus a stall watchdog over every engine worker,
// /sessions with a JSON snapshot of live sessions (admission timestamps,
// cumulative counters, sampled latency; per-session counters are served
// there only), /trace with the scheduler's flight-recorder ring, and
// /debug/pprof.
//
// Windowed telemetry and SLOs: a background sampler (internal/telem) ticks
// every -slo-tick, derives per-tenant rolling rates and stage quantiles over
// -slo-short and -slo-long windows, and serves them on /stats/windows beside
// each tenant's lifetime serving-stage breakdown; it evaluates the -slo
// objectives with multi-window burn-rate logic on /stats/slo. -slo
// accepts a JSON array literal or a file path:
// [{"tenant":"*","stage":"compute","p99_ms":2,"max_errors_per_s":5}].
// A breach flips /healthz to degraded with the reason; every breach,
// recovery, session kill, terminal fault, watchdog stall/recovery and
// admission rejection lands in the structured event ring on /events
// (?since=<cursor>&max=<n>, the newest 1024 events) and in the process log.
//
// Latency attribution: -latency-sample N stamps one scheduling quantum in
// every N at its stage boundaries (queue wait, dispatch, compute, wire
// egress); clients that opt in (client.Options.ServerTiming) additionally
// receive their session's breakdown on its Done. -latency-sample -1
// disables attribution entirely.
//
// Connection lifecycle is logged with log/slog (structured key=value
// records: session id, tenant, remote address); -log-level picks the floor.
//
// Fault tolerance: -retries gives every session a per-block retry budget for
// transient accelerator faults (with -retry-backoff pacing the attempts); a
// terminal fault retires only the faulting session — other tenants keep
// their fair shares and the daemon keeps serving. A worker that stops
// completing work for 2s while sessions wait is reported stalled on
// /healthz (503) and dumps the flight ring.
//
// -smoke runs a self-test instead of serving: it starts the daemon on a
// loopback port, streams a SHA-256 job through a real client connection,
// checks the digests against a local software run — and, with timing
// requested, that the server-side stage breakdown came back — and exits.
// It is the CI end-to-end check for the whole serving stack.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/obsrv"
	"cohort/internal/sched"
	"cohort/internal/telem"
)

// telemConfig carries the telemetry-plane flags into run.
type telemConfig struct {
	slos  []telem.SLO
	tick  time.Duration
	short time.Duration
	long  time.Duration
}

// Fixed serving knobs: every deployment and test runs these values.
const (
	quantum      = 32               // max blocks served per scheduling decision
	maxSessions  = 64               // admission control: max concurrently live sessions
	queueCap     = 4096             // per-direction session queue capacity in words
	eventsCap    = 1024             // structured event ring capacity (/events)
	stallWindow  = 2 * time.Second  // a worker idle this long while work waits is stalled
	drainTimeout = 30 * time.Second // max wait for in-flight sessions when draining
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:7411", "serve the wire protocol on this TCP address")
		engines       = flag.Int("engines", 2, "engine worker pool size")
		retries       = flag.Int("retries", 0, "per-block retry budget for transient accelerator faults (0 = every fault is terminal)")
		retryBackoff  = flag.Duration("retry-backoff", 100*time.Microsecond, "pause before the first retry, doubling per attempt")
		latencySample = flag.Int("latency-sample", 64, "stage-latency attribution: stamp 1 in N scheduling quanta (-1 disables)")
		httpAddr      = flag.String("http", "", "serve /metrics, /healthz, /sessions, /stats/*, /events, /trace and /debug/pprof on this address (e.g. :9122)")
		slo           = flag.String("slo", "", "SLO specs: JSON array literal or file path, e.g. [{\"tenant\":\"*\",\"stage\":\"compute\",\"p99_ms\":2}]")
		sloTick       = flag.Duration("slo-tick", time.Second, "telemetry sampling period")
		sloShort      = flag.Duration("slo-short", 10*time.Second, "short observation window for rates, quantiles and burn rates")
		sloLong       = flag.Duration("slo-long", 5*time.Minute, "long observation window for burn-rate confirmation")
		drain         = flag.Bool("drain", false, "drain on SIGTERM/SIGINT: stop admitting sessions, flush the in-flight ones (up to 30s), then exit — the rolling-restart path; /drain (POST) starts a drain early")
		logLevel      = flag.String("log-level", "info", "log floor: debug, info, warn or error")
		smoke         = flag.Bool("smoke", false, "run the loopback self-test and exit")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "cohortd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	slos, err := telem.ParseSLOs(*slo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cohortd: %v\n", err)
		os.Exit(2)
	}
	tc := telemConfig{slos: slos, tick: *sloTick, short: *sloShort, long: *sloLong}

	cfg := sched.Config{
		Engines: *engines, Quantum: quantum,
		MaxSessions: maxSessions, QueueCap: queueCap,
		Retries: *retries, RetryBackoff: *retryBackoff,
		LatencySample: *latencySample,
	}
	if *smoke {
		if err := runSmoke(cfg); err != nil {
			logger.Error("smoke failed", "err", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, tc, logger, *listen, *httpAddr, *drain); err != nil {
		logger.Error("cohortd exiting", "err", err)
		os.Exit(1)
	}
}

func run(cfg sched.Config, tc telemConfig, logger *slog.Logger, listen, httpAddr string, drain bool) error {
	reg := cohort.NewRegistry()
	flight := cohort.NewFlightRecorder(4096)
	cfg.Registry = reg
	cfg.Trace = flight
	cohort.RegisterBuildInfo(reg, "build")

	// Structured event plane: the scheduler's state transitions (kills,
	// terminal faults, rejections), the watchdog's stall edges and the SLO
	// engine's breach/recovery flips all land in one ring, mirrored to the
	// process log and served on /events.
	events := telem.NewLog(eventsCap, logger)
	cfg.Events = events

	s := sched.New(cfg)
	sv := sched.NewServer(s, nil)
	sv.Log = logger
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- sv.Serve(ln) }()

	// Stall watchdog over the engine workers: a worker that stops completing
	// quanta while sessions have runnable work shows on /healthz (503) and
	// dumps the flight ring for post-mortem.
	dog := cohort.NewWatchdog(stallWindow,
		cohort.WithStallDump(flight),
		cohort.WithStallCallback(func(ev cohort.StallEvent) {
			logger.Warn("worker stalled", "worker", ev.Engine, "idle", ev.Idle)
			events.Emit(telem.EventWatchdogStall, "", 0,
				fmt.Sprintf("%s stalled for %v", ev.Engine, ev.Idle))
		}),
		cohort.WithRecoveryCallback(func(ev cohort.StallEvent) {
			events.Emit(telem.EventWatchdogRecover, "", 0,
				fmt.Sprintf("%s recovered after %v", ev.Engine, ev.Idle))
		}),
	)
	s.WatchWorkers(dog)
	cohort.RegisterWatchdog(reg, "watchdog", dog)

	// Windowed telemetry sampler: rolling per-tenant rates and stage
	// quantiles on /stats/windows, multi-window SLO evaluation.
	sampler := telem.New(telem.Config{
		Source: s.Totals, Tick: tc.tick, Short: tc.short, Long: tc.long,
		SLOs: tc.slos, Events: events,
	})
	reg.Register("telem", sampler.Metrics)
	sampler.Start()

	var web *obsrv.Server
	if httpAddr != "" {
		web = obsrv.New(obsrv.Options{
			MetricsText: reg.WritePrometheus,
			TraceJSON:   func(w io.Writer) error { return flight.WriteChrome(w, "cohortd") },
			Events:      func(since uint64, max int) any { return events.PageSince(since, max) },
			Docs: map[string]func() any{
				"/sessions":      func() any { return s.Sessions() },
				"/stats/slo":     func() any { return sampler.Status() },
				"/stats/windows": func() any { return sampler.Windows() },
			},
			// /drain: POST starts draining (stop admitting, flush in-flight
			// sessions); GET reads progress. Either way the response is the
			// live drain-progress document.
			Drain: func(trigger bool) any {
				if trigger {
					logger.Info("drain requested via /drain")
					s.Drain()
				}
				return s.DrainStatus()
			},
			// /healthz: the serving plane is degraded-but-alive (200,
			// "degraded") once it has contained terminal faults or kills; a
			// live session parked on an error shows as its own degraded row;
			// a stalled or parked engine worker (watchdog verdict) flips the
			// whole document unhealthy (503).
			Health: func() []obsrv.Health {
				st := s.Stats()
				// Draining flips /healthz to status "draining" (still 200):
				// routing tiers eject the shard from the ring while in-flight
				// clients finish cleanly.
				hs := []obsrv.Health{{Name: "sched", Draining: s.Draining()}}
				if n := st.TerminalFaults + st.Kills; n > 0 {
					hs[0].Degraded = fmt.Sprintf("%d terminal faults, %d kills contained",
						st.TerminalFaults, st.Kills)
				}
				// SLO verdict: a breaching objective degrades the whole
				// document (200 "degraded") with the breach reason — the
				// daemon still serves, but operators see which tenant's
				// objective is burning and why.
				hs = append(hs, obsrv.Health{Name: "slo", Degraded: sampler.Degraded()})
				for _, h := range dog.Health() {
					row := obsrv.Health{Name: h.Engine, Stalled: h.Stalled, Idle: h.Idle}
					if h.Err != nil {
						row.Err = h.Err.Error()
					}
					hs = append(hs, row)
				}
				for _, ses := range s.Sessions() {
					if ses.Err != "" {
						hs = append(hs, obsrv.Health{
							Name:     fmt.Sprintf("session/%s#%d", ses.Tenant, ses.ID),
							Degraded: ses.Err,
						})
					}
				}
				return hs
			},
		})
		if err := web.Serve(httpAddr); err != nil {
			sampler.Stop()
			dog.Stop()
			sv.Close()
			s.Close()
			return err
		}
		logger.Info("observability plane up", "addr", web.Addr(),
			"endpoints", strings.Join(web.Routes(), " "))
	}

	obsrv.AwaitShutdown(
		fmt.Sprintf("serving %d engines on %s (quantum %d blocks) until interrupted (Ctrl-C)",
			cfg.Engines, ln.Addr(), cfg.Quantum),
		// Drain barrier, ahead of the teardown hooks: stop admitting, then
		// let the in-flight sessions stream their final Done frames before
		// the server starts closing connections. The observability plane is
		// still up, so the fleet catalog sees "draining" and ejects this
		// shard from the ring while its sessions finish.
		func() {
			if !drain {
				return
			}
			s.Drain()
			ds := s.DrainStatus()
			logger.Info("draining", "live_sessions", ds.Live, "timeout", drainTimeout)
			deadline := time.Now().Add(drainTimeout)
			select {
			case <-s.Drained():
			case <-time.After(drainTimeout):
				logger.Warn("drain timeout; closing with sessions still live",
					"live_sessions", s.DrainStatus().Live)
			}
			// Scheduler retirement is not wire-level flush: the handlers may
			// still be writing the final Done frames. Quiesce waits for them
			// so the Close below cannot cut a last frame off mid-write.
			remaining := time.Until(deadline)
			if remaining < time.Second {
				remaining = time.Second
			}
			if sv.Quiesce(remaining) {
				logger.Info("drain complete")
			} else {
				logger.Warn("drain timeout; connections still open after quiesce")
			}
		},
		func() { sv.Close() },
		func() { s.Close() },
		func() { sampler.Stop() },
		func() { dog.Stop() },
		func() {
			if web != nil {
				web.Close()
			}
		},
	)
	if err := <-serveErr; !errors.Is(err, sched.ErrServerClosed) {
		return err
	}
	return nil
}

// runSmoke is the end-to-end self-test: real scheduler, real TCP listener,
// real client, SHA-256 digests checked word for word against a local
// software run of the same accelerator — plus the latency-attribution path:
// the client opts into server timing and the Done frame must carry a stage
// breakdown with at least one sampled compute quantum.
func runSmoke(cfg sched.Config) error {
	reg := cohort.NewRegistry()
	cfg.Registry = reg
	// Sample every quantum so the tiny smoke job reliably produces stage
	// samples for the Done timing check.
	cfg.LatencySample = 1
	s := sched.New(cfg)
	defer s.Close()
	sv := sched.NewServer(s, nil)
	defer sv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on the deferred Close

	const blocks = 64
	ref := cohort.NewSHA256()
	in := make([]cohort.Word, blocks*ref.InWords())
	for i := range in {
		in[i] = cohort.Word(i)*2654435761 + 17
	}
	want := make([]cohort.Word, 0, blocks*ref.OutWords())
	for b := 0; b < blocks; b++ {
		ws, err := ref.Process(in[b*ref.InWords() : (b+1)*ref.InWords()])
		if err != nil {
			return err
		}
		want = append(want, ws...)
	}

	start := time.Now()
	c, err := client.Connect(ln.Addr().String(), client.Options{
		Tenant: "smoke", Accel: "sha256", ServerTiming: true,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	got, res, err := c.Stream(in)
	if err != nil {
		return fmt.Errorf("smoke stream: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("smoke: got %d digest words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("smoke: digest word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	if res == nil || res.Blocks != blocks {
		return fmt.Errorf("smoke: done reply %+v, want %d blocks", res, blocks)
	}
	elapsed := time.Since(start)
	timing := c.LastServerTiming()
	if timing == nil || res.Timing == nil {
		return fmt.Errorf("smoke: no server timing in done reply (timing requested)")
	}
	if timing.Compute.Samples == 0 {
		return fmt.Errorf("smoke: server timing has no compute samples: %+v", timing)
	}
	if sum := timing.ServerMeanNs(); sum <= 0 || sum > float64(elapsed) {
		return fmt.Errorf("smoke: server stage sum %.0fns outside (0, e2e %dns]", sum, elapsed)
	}
	if n := len(s.Sessions()); n != 0 {
		return fmt.Errorf("smoke: %d sessions still live after done", n)
	}
	fmt.Printf("smoke ok: %d sha256 blocks round-tripped over %s in %v (session %d, server-resident mean %.1fµs/quantum)\n",
		blocks, ln.Addr(), elapsed.Round(time.Microsecond), c.Session(), timing.ServerMeanNs()/1e3)
	return nil
}
