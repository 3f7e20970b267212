// Command cohortload is an open-loop load generator for a cohortd daemon: it
// drives configurable tenant mixes of concurrent sessions with Poisson
// arrivals and reports per-block latency quantiles and goodput as
// benchstat-compatible text, with the daemon's server-side stage breakdown
// alongside.
//
// Open loop means arrivals are scheduled by the clock, not by completions: a
// batch's latency is measured from its *scheduled* arrival time, so server
// queueing delay — including the sender's own inability to keep up — counts
// against the server instead of silently throttling the workload (the
// coordinated-omission trap of closed-loop generators). -rate 0 disables
// pacing and measures saturation goodput instead.
//
// Each arrival is one 64-word request. The client packs every arrival due
// at wake-up into one Send (up to 64 arrivals): one ring publication on the
// daemon's host, one zero-copy Data frame from anywhere else.
//
// With an empty -addr the daemon runs in-process on a loopback listener,
// serving 64-word echo blocks at a quantum of 64 blocks. -slo-p99 turns the
// run into a pass/fail verdict.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/tracestat"
	"cohort/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cohortload: ")
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "", "drive external daemons: one address (a cohortd, or a cohortgw front door) or a comma-separated shard list to spread sessions round-robin (empty: spawn one in-process)")
	flag.StringVar(&cfg.accel, "accel", "echo", "accelerator to open sessions on (spawned daemons add \"echo\" with 64-word blocks)")
	flag.IntVar(&cfg.tenants, "tenants", 4, "concurrent tenant sessions")
	flag.Float64Var(&cfg.rate, "rate", 0, "aggregate Poisson arrival rate in batches/sec across all tenants (0: unthrottled saturation)")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "send window per run")
	sloP99 := flag.Duration("slo-p99", 0, "SLO verdict mode: fail (exit 1) if the run's end-to-end block p99 exceeds this (0: off)")
	flag.Parse()

	fmt.Printf("goos: %s\ngoarch: %s\npkg: cohort/cmd/cohortload\n", runtime.GOOS, runtime.GOARCH)
	r, err := oneRun(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *sloP99 > 0 {
		// Verdict mode: judge the open-loop end-to-end block p99 (which charges
		// queueing from the *scheduled* arrival time, so a saturated server
		// fails honestly) against the target, and exit non-zero on breach so CI
		// can gate on it.
		target := round2(float64(*sloP99) / 1e3)
		if r.BlockP99us <= float64(*sloP99)/1e3 {
			fmt.Printf("slo verdict: PASS (block p99 %.1fµs <= target %.1fµs)\n", r.BlockP99us, target)
		} else {
			fmt.Printf("slo verdict: FAIL (block p99 %.1fµs > target %.1fµs)\n", r.BlockP99us, target)
			os.Exit(1)
		}
	}
}

// Fixed load-shape knobs: every run uses these values.
const (
	block    = 64    // echo accelerator block size in words (spawned daemons)
	batch    = 64    // words per arrival (one open-loop request); a multiple of block
	coalesce = 64    // max due arrivals packed per Send
	engines  = 2     // spawned daemon: engine pool size
	quantum  = 64    // spawned daemon: blocks per scheduling decision
	queueCap = 16384 // spawned daemon: per-direction session queue capacity in words
	seed     = 1     // arrival-process RNG seed
)

type runConfig struct {
	addr     string
	accel    string
	tenants  int
	rate     float64
	duration time.Duration
}

// runResult is one run's aggregate: what the benchstat line and the SLO
// verdict read.
type runResult struct {
	Blocks     uint64
	Words      uint64
	BlockP50us float64
	BlockP99us float64
	// ServerStages decomposes where the server-resident time went (the
	// clients opt into server timing and each session's Done carries the
	// daemon's sampled stage attribution). Comparing ServerMeanUs against
	// the end-to-end block quantiles splits latency into server-resident vs
	// network + client-side cost.
	ServerStages *serverStages
	// Shards attributes the run per target address when -addr named more
	// than one daemon — the fleet view: aggregate goodput above, who served
	// what below.
	Shards []shardGoodput
}

// shardGoodput is one target daemon's slice of a multi-address run.
type shardGoodput struct {
	Addr           string
	Sessions       int
	Blocks         uint64
	Words          uint64
	GoodputMiBPerS float64
}

// stageAgg is one stage aggregated across every tenant session of a run:
// samples-weighted mean, worst per-session p99.
type stageAgg struct {
	Samples uint64
	MeanUs  float64
	P99Us   float64
}

// serverStages is a run's server-side latency decomposition, aggregated from
// the timing document on each session's Done.
type serverStages struct {
	Sessions     int // sessions that reported timing
	Queue        stageAgg
	Sched        stageAgg
	Compute      stageAgg
	Wire         stageAgg
	ServerMeanUs float64 // sum of the four stage means
}

// aggregateStages folds per-session telemetry into one run-level breakdown.
func aggregateStages(ts []*wire.TelemetryReply) *serverStages {
	if len(ts) == 0 {
		return nil
	}
	agg := &serverStages{Sessions: len(ts)}
	acc := func(dst *stageAgg, st wire.StageTiming) {
		dst.Samples += st.Samples
		dst.MeanUs += st.MeanNs * float64(st.Samples) // ns-sum until fin
		if p := st.P99Ns / 1e3; p > dst.P99Us {
			dst.P99Us = round2(p)
		}
	}
	for _, t := range ts {
		acc(&agg.Queue, t.Queue)
		acc(&agg.Sched, t.Sched)
		acc(&agg.Compute, t.Compute)
		acc(&agg.Wire, t.Wire)
	}
	fin := func(dst *stageAgg) {
		if dst.Samples > 0 {
			dst.MeanUs = round2(dst.MeanUs / float64(dst.Samples) / 1e3)
		}
	}
	fin(&agg.Queue)
	fin(&agg.Sched)
	fin(&agg.Compute)
	fin(&agg.Wire)
	agg.ServerMeanUs = round2(agg.Queue.MeanUs + agg.Sched.MeanUs + agg.Compute.MeanUs + agg.Wire.MeanUs)
	return agg
}

// echoAccel is a block pass-through of block words, so wire and scheduler
// cost dominate and compute does not.
type echoAccel struct{ out [block]cohort.Word }

func (e *echoAccel) Name() string           { return "echo" }
func (e *echoAccel) InWords() int           { return block }
func (e *echoAccel) OutWords() int          { return block }
func (e *echoAccel) Configure([]byte) error { return nil }

func (e *echoAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	copy(e.out[:], in)
	return e.out[:], nil
}

// spawnDaemon brings up an in-process scheduler + wire server on a loopback
// listener, with the default catalog plus the echo geometry.
func spawnDaemon(cfg runConfig) (addr string, stop func(), err error) {
	s := sched.New(sched.Config{
		Engines: engines, Quantum: quantum, QueueCap: queueCap,
		MaxSessions: 2*cfg.tenants + 8,
	})
	cat := sched.DefaultCatalog()
	cat["echo"] = func() (cohort.Accelerator, error) { return new(echoAccel), nil }
	sv := sched.NewServer(s, cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return ln.Addr().String(), func() { sv.Close(); s.Close() }, nil
}

// batchRec tracks one in-flight arrival: when it was *scheduled* to arrive
// (the open-loop latency origin) and how many result words retire it.
type batchRec struct {
	due   time.Time
	words int
}

// oneRun drives the full tenant mix for one send window and aggregates the
// samples.
func oneRun(cfg runConfig) (runResult, error) {
	// -addr may name several daemons (a shard fleet driven directly): workers
	// spread round-robin so every shard sees load and the report attributes
	// goodput per shard. One address — a single daemon or a gateway — is the
	// degenerate case of the same path.
	addrs := splitAddrs(cfg.addr)
	if len(addrs) == 0 {
		a, stop, err := spawnDaemon(cfg)
		if err != nil {
			return runResult{}, err
		}
		defer stop()
		addrs = []string{a}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		blockLat []int64 // ns, decimated
		words    uint64
		blocks   uint64
		timings  []*wire.TelemetryReply
	)
	tallies := make(map[string]*shardGoodput, len(addrs))
	for _, a := range addrs {
		tallies[a] = &shardGoodput{Addr: a}
	}
	start := time.Now()
	perSess := cfg.rate / float64(cfg.tenants)
	for i := 0; i < cfg.tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				cfg: cfg, addr: addrs[i%len(addrs)],
				tenant: fmt.Sprintf("load-%d", i),
				rng:    rand.New(rand.NewSource(seed + int64(i))),
				rate:   perSess,
			}
			err := w.run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", w.tenant, err)
			}
			blockLat = append(blockLat, w.lat.vals...)
			words += w.words
			blocks += w.blocks
			t := tallies[w.addr]
			t.Sessions++
			t.Blocks += w.blocks
			t.Words += w.words
			if w.timing != nil {
				timings = append(timings, w.timing)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return runResult{}, firstErr
	}
	elapsed := time.Since(start)

	res := runResult{
		Blocks: blocks, Words: words,
		BlockP50us:   quantUS(blockLat, 0.50),
		BlockP99us:   quantUS(blockLat, 0.99),
		ServerStages: aggregateStages(timings),
	}
	if len(addrs) > 1 {
		// Fleet attribution: per-shard goodput next to the aggregate, in the
		// order the shards were named.
		for _, a := range addrs {
			t := tallies[a]
			t.GoodputMiBPerS = round2(float64(t.Words) * 8 / (1 << 20) / elapsed.Seconds())
			res.Shards = append(res.Shards, *t)
		}
	}
	// benchstat-compatible: one line per run, ns/op is per block served.
	nsPerBlock := float64(elapsed.Nanoseconds()) / float64(max(blocks, 1))
	fmt.Printf("BenchmarkServe/mode=batched/block=%d/batch=%d/coalesce=%d/tenants=%d \t%8d\t%12.1f ns/op\t%10.2f MB/s\t%10.1f p99-us\n",
		block, batch, coalesce, cfg.tenants, blocks, nsPerBlock,
		float64(words)*8/1e6/elapsed.Seconds(), res.BlockP99us)
	if sg := res.ServerStages; sg != nil {
		// Decomposed e2e latency: the server-resident stage means (sampled
		// per quantum) versus the client's open-loop block quantiles. The
		// remainder is network transit + client-side time + unsampled skew.
		fmt.Printf("  server stages (%d sessions reporting):\n", sg.Sessions)
		for _, row := range []struct {
			name string
			a    stageAgg
		}{{"queue", sg.Queue}, {"sched", sg.Sched}, {"compute", sg.Compute}, {"wire", sg.Wire}} {
			fmt.Printf("    %-8s mean %9.2f us   p99 %9.2f us   (n=%d)\n",
				row.name, row.a.MeanUs, row.a.P99Us, row.a.Samples)
		}
		fmt.Printf("    %-8s mean %9.2f us   vs e2e block p50 %.2f us / p99 %.2f us\n",
			"server", sg.ServerMeanUs, res.BlockP50us, res.BlockP99us)
	}
	for _, t := range res.Shards {
		fmt.Printf("  shard %-24s sessions %3d  blocks %10d  %8.2f MiB/s\n",
			t.Addr, t.Sessions, t.Blocks, t.GoodputMiBPerS)
	}
	return res, nil
}

// splitAddrs parses the -addr list, dropping empty entries.
func splitAddrs(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

type worker struct {
	cfg    config // alias below keeps the struct readable
	addr   string
	tenant string
	rng    *rand.Rand
	rate   float64 // arrivals/sec for this session; 0 = unthrottled
	lat    sampler
	words  uint64
	blocks uint64
	timing *wire.TelemetryReply // final server-side stage breakdown
}

type config = runConfig

// run opens one session, paces batches through it for the send window, then
// drains to Done. The receive side runs concurrently so backpressure is the
// server's, not the harness's.
func (w *worker) run() error {
	c, err := client.Connect(w.addr, client.Options{
		Tenant: w.tenant, Accel: w.cfg.accel, ServerTiming: true,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	t0 := time.Now()

	// Pending batches flow sender→receiver in send order; the channel is the
	// in-flight window bookkeeping, not a throttle (capacity well beyond what
	// queue + socket backpressure admits).
	pending := make(chan batchRec, 1<<16)
	recvErr := make(chan error, 1)
	go func() { recvErr <- w.receive(c, pending) }()

	// coalesce copies of one batch, back to back: a pass sends a prefix.
	in := make([]cohort.Word, coalesce*batch)
	for i := range in {
		in[i] = cohort.Word(i%batch)*2654435761 + 99
	}
	deadline := t0.Add(w.cfg.duration)
	next := t0
	dues := make([]time.Time, 0, coalesce)
	var sendErr error
	for time.Now().Before(deadline) {
		// Collect the arrivals due this pass. Paced mode sleeps to the next
		// Poisson arrival, then also picks up any backlog already due — the
		// schedule never slips, so a late sender measures as server latency.
		// Saturation mode (-rate 0) treats a full coalesce window as due.
		dues = dues[:0]
		if w.rate > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			for !next.After(now) && len(dues) < coalesce {
				dues = append(dues, next)
				next = next.Add(time.Duration(w.rng.ExpFloat64() / w.rate * float64(time.Second)))
			}
		} else {
			now := time.Now()
			for len(dues) < coalesce {
				dues = append(dues, now)
			}
		}
		if w.rate > 0 {
			for _, due := range dues {
				pending <- batchRec{due: due, words: batch}
			}
		} else {
			// Saturation arrivals in one pass share a due stamp: one record
			// covers them all (the receiver tracks words, not frames).
			pending <- batchRec{due: dues[0], words: batch * len(dues)}
		}
		// Every due arrival goes out in one contiguous Send: one zero-copy
		// Data frame, or one ring publication.
		if sendErr = c.Send(in[:len(dues)*batch]); sendErr != nil {
			break
		}
	}
	if err := c.CloseSend(); err != nil && sendErr == nil {
		sendErr = err
	}
	close(pending)
	if err := <-recvErr; err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	if res := c.Result(); res == nil || res.Err != "" {
		return fmt.Errorf("session did not finish cleanly: %+v", res)
	}
	w.timing = c.LastServerTiming()
	return nil
}

// receive drains results, retiring pending batches in order and recording
// one latency sample per completed block (stamped when its last word lands).
func (w *worker) receive(c *client.Conn, pending <-chan batchRec) error {
	buf := make([]cohort.Word, 1<<16)
	var cur batchRec
	rem, into := 0, 0 // words left in cur; words already landed in cur
	for {
		n, err := c.RecvInto(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		now := time.Now()
		w.words += uint64(n)
		for n > 0 {
			if rem == 0 {
				cur = <-pending
				rem, into = cur.words, 0
			}
			take := min(n, rem)
			done := (into+take)/block - into/block
			lat := now.Sub(cur.due).Nanoseconds()
			for i := 0; i < done; i++ {
				w.lat.add(lat)
			}
			w.blocks += uint64(done)
			into += take
			rem -= take
			n -= take
		}
	}
}

// sampler keeps a memory-bounded, time-uniform subset of latency samples:
// when full it drops every other retained sample and doubles its stride.
type sampler struct {
	vals   []int64
	stride int
	skip   int
}

const samplerCap = 1 << 20

func (sp *sampler) add(v int64) {
	if sp.stride == 0 {
		sp.stride = 1
	}
	if sp.skip > 0 {
		sp.skip--
		return
	}
	sp.skip = sp.stride - 1
	if len(sp.vals) == samplerCap {
		keep := sp.vals[:0]
		for i := 0; i < len(sp.vals); i += 2 {
			keep = append(keep, sp.vals[i])
		}
		sp.vals = keep
		sp.stride *= 2
		sp.skip = sp.stride - 1
	}
	sp.vals = append(sp.vals, v)
}

// quantUS returns the q-quantile of ns samples in microseconds. It sorts
// ns in place.
func quantUS(ns []int64, q float64) float64 {
	slices.Sort(ns)
	return round2(tracestat.Quantile(ns, q) / 1e3)
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
