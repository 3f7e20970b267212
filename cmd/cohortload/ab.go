// The -ab harness: static-vs-adaptive scheduler orchestration over the SAME
// Poisson trace (same per-tenant seeds, same mix, same send window), so the
// only degree of freedom between runs is whether the policy controller is
// closing the loop. The workload is deliberately skewed — the mix no single
// static knob setting serves well:
//
//   - latency tenants (even indexes): small blocks (16 words) over a paced
//     Poisson arrival process, opened with an echo CSR that overrides the
//     daemon's block geometry per session;
//   - throughput tenants (odd indexes): the daemon's -block geometry at
//     saturation (unthrottled open loop).
//
// Both daemons run the identical stack — registry, sampler, event ring, the
// same -switch-cost and starting -quantum — except the adaptive one also
// runs internal/policy over the sampler's frames. The controller's arm 0
// has the static run's quantum but a 4096-word frame cap, where the static
// daemon keeps wire.MaxFrameWords; so the bandit starts near where the
// static run is pinned and must discover the better arms online. With a
// non-zero -switch-cost a small static quantum pays the modeled CSR-swap on
// every session switch and the gap is large. The -ab-report JSON document
// records both goodputs, the adaptive/static ratio, each run's worker swaps
// and the controller's full /policy document (arms, reward estimates,
// switch history) — CI gates on adaptive >= static and at least one
// policy_switch.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cohort"
	"cohort/internal/policy"
	"cohort/internal/sched"
	"cohort/internal/telem"
)

// Latency-tenant geometry: one small block per paced arrival.
const (
	abLatBlock  = 16    // words per latency-tenant block (echo CSR override)
	abLatRateHz = 200.0 // paced arrivals/sec per latency tenant
)

// Sampler/controller cadence: fast enough that a 2s CI smoke completes the
// arm sweep and converges with decisions to spare.
const (
	abTick  = 100 * time.Millisecond
	abShort = 500 * time.Millisecond
	abLong  = 2 * time.Second
)

// abMode is one parsed -ab entry.
type abMode struct {
	label    string
	adaptive bool
	quantum  int // static daemon quantum (0: the -quantum flag)
}

// parseABModes parses the -ab list: "static", "static:q=N", "adaptive".
func parseABModes(spec string) ([]abMode, error) {
	var modes []abMode
	for _, raw := range strings.Split(spec, ",") {
		m := strings.TrimSpace(raw)
		if m == "" {
			continue
		}
		switch {
		case m == "adaptive":
			modes = append(modes, abMode{label: m, adaptive: true})
		case m == "static":
			modes = append(modes, abMode{label: m})
		case strings.HasPrefix(m, "static:q="):
			q, err := strconv.Atoi(m[len("static:q="):])
			if err != nil || q < 1 {
				return nil, fmt.Errorf("-ab mode %q: bad quantum", m)
			}
			modes = append(modes, abMode{label: m, quantum: q})
		default:
			return nil, fmt.Errorf("-ab mode %q: want static, static:q=N or adaptive", m)
		}
	}
	if len(modes) < 2 {
		return nil, fmt.Errorf("-ab %q: need at least two modes", spec)
	}
	return modes, nil
}

// harnessArms is the A/B action space. Arm 0 has the static run's quantum
// (with a 4096-word frame cap, not the static daemon's wire.MaxFrameWords),
// so the bandit's sweep starts near where the static run is pinned; the
// remaining arms trade switch overhead for latency at increasing
// quantum/coalesce.
func harnessArms(staticQuantum int) []policy.Arm {
	arms := []policy.Arm{
		{Quantum: staticQuantum, CoalesceWords: 4096},
		{Quantum: 64, CoalesceWords: 65536},
		{Quantum: 256, CoalesceWords: 65536},
	}
	return arms
}

// abRunResult is one A/B run's row: the aggregate plus per-class latency
// quantiles (the latency tenants are the ones an over-batched configuration
// hurts) and, for the adaptive run, the controller's final /policy document.
type abRunResult struct {
	Mode             string      `json:"mode"`
	Quantum          int         `json:"quantum"` // static pin / adaptive start
	Blocks           uint64      `json:"blocks"`
	Words            uint64      `json:"words"`
	ElapsedS         float64     `json:"elapsed_s"`
	GoodputWordsPerS float64     `json:"goodput_words_per_s"`
	GoodputMiBPerS   float64     `json:"goodput_mib_per_s"`
	LatBlockP50us    float64     `json:"lat_block_p50_us"`
	LatBlockP99us    float64     `json:"lat_block_p99_us"`
	ThrBlockP99us    float64     `json:"thr_block_p99_us"`
	Swaps            uint64      `json:"swaps"` // worker swaps between sessions (sched.SchedStats.Swaps)
	Policy           *policy.Doc `json:"policy,omitempty"`
}

// abReport is the -ab-report JSON document.
type abReport struct {
	Benchmark     string        `json:"benchmark"`
	GeneratedUnix int64         `json:"generated_unix"`
	Config        reportConfig  `json:"config"`
	Mix           abMix         `json:"mix"`
	Runs          []abRunResult `json:"runs"`
	// AdaptiveVsStatic is adaptive goodput over the BEST static goodput.
	AdaptiveVsStatic float64 `json:"adaptive_vs_static,omitempty"`
	PolicySwitches   uint64  `json:"policy_switches"`
	// Pass: the adaptive controller matched or beat every static
	// configuration (>= 0.95 of the best static allows measurement jitter
	// on a converged tie) AND switched arms at least once.
	Pass bool `json:"pass"`
}

// reportConfig records the flags an A/B report ran under.
type reportConfig struct {
	Accel     string  `json:"accel"`
	Block     int     `json:"block_words"`
	Batch     int     `json:"batch_words"`
	Coalesce  int     `json:"coalesce_arrivals"`
	Tenants   int     `json:"tenants"`
	RateHz    float64 `json:"rate_hz"`
	DurationS float64 `json:"duration_s"`
	Engines   int     `json:"engines"`
	Quantum   int     `json:"quantum"`
	QueueCap  int     `json:"queue_cap_words"`
}

// abMix documents the skewed tenant mix the runs shared.
type abMix struct {
	LatencyTenants    int     `json:"latency_tenants"`
	LatencyBlockWords int     `json:"latency_block_words"`
	LatencyRateHz     float64 `json:"latency_rate_hz"`
	ThroughputTenants int     `json:"throughput_tenants"`
	ThroughputBlock   int     `json:"throughput_block_words"`
	SwitchCostUs      float64 `json:"switch_cost_us"`
}

// runAB is the -ab entry point: run every mode over the same trace, write
// the report, and fail loudly when the adaptive claim does not hold.
func runAB(cfg runConfig, spec, outPath string) error {
	modes, err := parseABModes(spec)
	if err != nil {
		return err
	}
	var runs []abRunResult
	for _, m := range modes {
		r, err := abRun(cfg, m)
		if err != nil {
			return fmt.Errorf("ab %s: %w", m.label, err)
		}
		runs = append(runs, r)
	}

	report := abReport{
		Benchmark:     "cohortload/ab",
		GeneratedUnix: time.Now().Unix(),
		Config: reportConfig{
			Accel: cfg.accel, Block: cfg.block, Batch: cfg.batch, Coalesce: coalesce,
			Tenants: cfg.tenants, RateHz: cfg.rate, DurationS: cfg.duration.Seconds(),
			Engines: engines, Quantum: cfg.quantum, QueueCap: queueCap,
		},
		Mix: abMix{
			LatencyTenants:    (cfg.tenants + 1) / 2,
			LatencyBlockWords: abLatBlock,
			LatencyRateHz:     abLatRateHz,
			ThroughputTenants: cfg.tenants / 2,
			ThroughputBlock:   cfg.block,
			SwitchCostUs:      round2(float64(cfg.switchCost) / 1e3),
		},
		Runs: runs,
	}
	var bestStatic, adaptive float64
	for _, r := range runs {
		if r.Mode == "adaptive" {
			if r.GoodputWordsPerS > adaptive {
				adaptive = r.GoodputWordsPerS
			}
			if r.Policy != nil {
				report.PolicySwitches += r.Policy.Switches
			}
		} else if r.GoodputWordsPerS > bestStatic {
			bestStatic = r.GoodputWordsPerS
		}
	}
	if adaptive > 0 && bestStatic > 0 {
		report.AdaptiveVsStatic = round4(adaptive / bestStatic)
		report.Pass = report.AdaptiveVsStatic >= 0.95 && report.PolicySwitches >= 1
		fmt.Printf("\nadaptive vs best static: %.2fx goodput (adaptive %.1f MiB/s, static %.1f MiB/s, %d policy switches)\n",
			report.AdaptiveVsStatic, adaptive*8/(1<<20), bestStatic*8/(1<<20), report.PolicySwitches)
	}
	if outPath != "" {
		writeJSON(outPath, report)
		fmt.Printf("report: %s\n", outPath)
	}
	if adaptive > 0 && bestStatic > 0 && !report.Pass {
		return fmt.Errorf("adaptive failed to match static: ratio %.3f, %d switches",
			report.AdaptiveVsStatic, report.PolicySwitches)
	}
	return nil
}

func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// spawnABDaemon brings up one in-process daemon for an A/B run. Static and
// adaptive variants run the IDENTICAL stack — registry, telemetry sampler,
// event ring, latency sampling — so the controller is the only difference
// being measured. report fills a run's worker swaps and, for an adaptive
// daemon, its /policy document.
func spawnABDaemon(cfg runConfig, m abMode, quantum int) (addr string, report func(*abRunResult), stop func(), err error) {
	reg := cohort.NewRegistry()
	events := telem.NewLog(256, nil)
	s := sched.New(sched.Config{
		Engines: engines, Quantum: quantum, QueueCap: queueCap,
		SwitchCost: cfg.switchCost, MaxSessions: 2*cfg.tenants + 8,
		LatencySample: 8, Registry: reg, Events: events,
	})
	cat := sched.DefaultCatalog()
	blk := cfg.block
	cat["echo"] = func() (cohort.Accelerator, error) { return newEcho(blk), nil }
	sv := sched.NewServer(s, cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, nil, err
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	sampler := telem.New(telem.Config{
		Registry: reg, Tick: abTick, Short: abShort, Long: abLong, Events: events,
	})
	sampler.Start()
	var ctl *policy.Controller
	var cancel func()
	if m.adaptive {
		frames, c := sampler.Subscribe(1)
		cancel = c
		ctl = policy.New(policy.Config{
			Sched:  s,
			Frames: frames,
			Arms:   harnessArms(quantum),
			// Low epsilon: a short A/B window should spend its decisions on
			// the sweep and exploitation, not random exploration.
			Epsilon:  0.05,
			Settle:   1,
			Seed:     seed,
			Registry: reg,
			Events:   events,
		})
		ctl.Start()
	}
	stop = func() {
		sv.Close()
		s.Close()
		if ctl != nil {
			cancel()
			ctl.Stop()
		}
		sampler.Stop()
	}
	report = func(r *abRunResult) {
		r.Swaps = s.Stats().Swaps
		if ctl != nil {
			d := ctl.Doc()
			r.Policy = &d
		}
	}
	return ln.Addr().String(), report, stop, nil
}

// abRun drives the skewed mix against one freshly spawned daemon. Seeds are
// per tenant index, so every mode replays the identical arrival trace.
func abRun(cfg runConfig, m abMode) (abRunResult, error) {
	quantum := m.quantum
	if quantum == 0 {
		quantum = cfg.quantum
	}
	addr, report, stop, err := spawnABDaemon(cfg, m, quantum)
	if err != nil {
		return abRunResult{}, err
	}
	defer stop()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		latLat   []int64 // latency-tenant block samples (ns)
		thrLat   []int64 // throughput-tenant block samples (ns)
		words    uint64
		blocks   uint64
	)
	start := time.Now()
	for i := 0; i < cfg.tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				cfg: cfg, addr: addr,
				rng: rand.New(rand.NewSource(seed + int64(i))),
			}
			if i%2 == 0 {
				// Latency tenant: small paced blocks, geometry via echo CSR.
				w.tenant = fmt.Sprintf("lat-%d", i)
				w.cfg.block, w.cfg.batch = abLatBlock, abLatBlock
				w.csr = echoCSR(abLatBlock)
				w.rate = abLatRateHz
			} else {
				// Throughput tenant: daemon -block geometry at saturation.
				w.tenant = fmt.Sprintf("thr-%d", i)
				w.rate = 0
			}
			err := w.run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", w.tenant, err)
			}
			if i%2 == 0 {
				latLat = append(latLat, w.lat.vals...)
			} else {
				thrLat = append(thrLat, w.lat.vals...)
			}
			words += w.words
			blocks += w.blocks
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return abRunResult{}, firstErr
	}
	elapsed := time.Since(start)

	res := abRunResult{
		Mode: m.label, Quantum: quantum, Blocks: blocks, Words: words,
		ElapsedS:         round4(elapsed.Seconds()),
		GoodputWordsPerS: round2(float64(words) / elapsed.Seconds()),
		GoodputMiBPerS:   round2(float64(words) * 8 / (1 << 20) / elapsed.Seconds()),
		LatBlockP50us:    quantUS(latLat, 0.50),
		LatBlockP99us:    quantUS(latLat, 0.99),
		ThrBlockP99us:    quantUS(thrLat, 0.99),
	}
	report(&res)
	fmt.Printf("BenchmarkServeAB/mode=%s/tenants=%d/block=%d/switch-cost=%v \t%8d\t%12.1f ns/op\t%10.2f MB/s\t%10.1f lat-p99-us\t%8d swaps\n",
		m.label, cfg.tenants, cfg.block, cfg.switchCost, blocks,
		float64(elapsed.Nanoseconds())/float64(max(blocks, 1)),
		float64(words)*8/1e6/elapsed.Seconds(), res.LatBlockP99us, res.Swaps)
	if p := res.Policy; p != nil {
		fmt.Printf("  policy: %d frames, %d decisions, %d switches (%d explore), final arm %d\n",
			p.Frames, p.Decisions, p.Switches, p.Explorations, p.CurrentArm)
		for i, a := range p.Arms {
			cur := " "
			if a.Current {
				cur = "*"
			}
			fmt.Printf("  %s arm %d: q=%-4d c=%-6d plays %3d  est %12.1f words/s\n",
				cur, i, a.Quantum, a.CoalesceWords, a.Plays, a.RewardEst)
		}
	}
	return res, nil
}
