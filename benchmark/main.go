//go:build linux

// Command benchmark is the repository's one benchmark: six workloads over the
// whole stack, end-to-end metrics from untraced windows, and a traced run
// that attributes them to layers. BENCHMARK.json at the repository root
// declares what it prints; README.md beside this file explains it.
//
//	go run ./benchmark -seed 1                      # all six workloads, then the traced run
//	go run ./benchmark -workload serve-paced -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -agree                       # two sets of runs; do their medians agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is what one measurement is asked for.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	out     string // where the traced run writes trace.json
}

// ladderBudget is the traced run's time for its workload-independent part:
// two thirds of the measuring time.
func (o options) ladderBudget() time.Duration {
	return time.Duration(o.seconds * 2 / 3 * float64(time.Second))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (default: all six, then the traced run)")
		seed     = flag.Int64("seed", 1, "seed of every payload and arrival schedule")
		seconds  = flag.Float64("seconds", 15, "measuring time per run")
		trace    = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics instead of the end-to-end ones")
		agree    = flag.Bool("agree", false, "run two alternating sets of three runs a workload and exit non-zero if any end-to-end median disagrees beyond its bound")
		out      = flag.String("out", "benchmark/out", "directory the traced run writes trace.json to")

		role     = flag.String("role", "", "internal: run as a child (shard, gateway, workload or idler)")
		engines  = flag.Int("engines", 1, "internal: shard engines")
		quantum  = flag.Int("quantum", 32, "internal: shard quantum")
		queueCap = flag.Int("queuecap", 1024, "internal: shard queue capacity")
		shards   = flag.String("shards", "", "internal: gateway shard list")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}

	switch *role {
	case "":
	case "shard":
		roleShard(shardConfig{Engines: *engines, Quantum: *quantum, QueueCap: *queueCap})
		return
	case "gateway":
		roleGateway(*shards)
		return
	case "workload":
		roleWorkload(*workload, o)
		return
	case "idler":
		roleIdler()
		return
	default:
		fatal(fmt.Errorf("unknown -role %q", *role))
	}

	switch {
	case *agree:
		os.Exit(runAgree(o))
	case *workload != "":
		if !findWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		r, sets, err := measure(*workload, o)
		if err != nil {
			fatal(err)
		}
		if o.traced {
			set, err := ladder(r.Metrics, o.ladderBudget(), o.seed)
			if err != nil {
				fatal(err)
			}
			if err := writeTrace(o.out, o.seed, append(sets, set)); err != nil {
				fatal(err)
			}
		}
		r.print(os.Stdout, *workload, o)
		r.printJSON(os.Stdout)
	default:
		os.Exit(runSuite(o))
	}
}

// result is one run's answer in the shape the driver reads. A declared metric
// the run did not measure is absent from Metrics and prints as 0: in a traced
// run, a layer the workload does not exercise.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	defs      []metricDef
	notes     []string
}

// measure runs one workload once. Untraced, it yields the end-to-end metrics;
// traced, the workload's own per-layer metrics and its spans.
func measure(name string, o options) (result, []traceSet, error) {
	var (
		out    outcome
		setups []float64
		used   usage
		stats  childStats
		err    error
	)
	p := newPlan(o.seconds, o.traced)
	var tr *tracer
	switch name {
	case "native-chain", "sim-paper":
		out, setups, used, err = measureChild(name, o) // the child traces itself
	default:
		if o.traced {
			tr = newTracer()
		}
		var sv serving
		switch name {
		case "serve-stream":
			sv = serveStream(o.seed)
		case "serve-compute":
			sv = serveCompute(o.seed)
		case "serve-paced":
			sv = servePaced(o.seed, p)
		case "serve-churn":
			sv = serveChurn(o.seed, p)
		}
		out, setups, used, stats, err = measureServing(sv, p, tr)
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	sum := summarize(out.Windows)
	r := result{
		Correct: out.Failed == 0 && out.Completed > 0, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: map[string]float64{}, defs: endToEnd,
	}
	perWindow := "by window, goodput_mib_s / op_p50_us / samples:"
	for _, w := range out.Windows {
		perWindow += fmt.Sprintf("  %.4g / %.1f / %d", w.BytesIn/mib/w.Seconds, quantile(sorted(w.LatUs), 0.5), len(w.LatUs))
	}
	r.notes = append(r.notes, perWindow)
	if v, ok := out.Layer["load.unattributed_us"]; ok {
		r.notes = append(r.notes, fmt.Sprintf("of the op median %.2f us, load.unattributed_us %.2f is in no stage; the generator ran load.late_p50_us %.2f late",
			sum.p50, v, out.Layer["load.late_p50_us"]))
	}
	if v, ok := out.Layer["sim.ref_err"]; ok {
		r.notes = append(r.notes, fmt.Sprintf("sim.ref_err %.4f sim.stats_crc32 %.0f (simulated, exact)", v, out.Layer["sim.stats_crc32"]))
	}
	if !o.traced {
		r.Metrics["setup_s"] = median(setups)
		r.Metrics["goodput_mib_s"] = sum.goodput
		r.Metrics["op_p50_us"] = sum.p50
		r.Metrics["op_p75_us"] = sum.p75
		r.Metrics["cpu_us_per_op"] = us(used.cpu) / float64(out.Completed)
		r.Metrics["peak_rss_mib"] = used.rssMiB
		return r, nil, nil
	}

	r.defs = perLayer
	for k, v := range out.Layer {
		r.Metrics[k] = v
	}
	r.Metrics["load.samples"] = float64(sum.samples)
	r.Metrics["load.op_p90_us"] = sum.p90
	r.Metrics["load.op_p99_us"] = sum.p99
	// The windows are back to back on one live system: the first untraced,
	// the last traced.
	first, last := out.Windows[0], out.Windows[len(out.Windows)-1]
	if rate := float64(first.Ops-first.Failed) / first.Seconds; rate > 0 {
		r.Metrics["load.tracing_overhead_share"] = 1 - float64(last.Ops-last.Failed)/last.Seconds/rate
	}
	if stats.Decisions > 0 {
		r.Metrics["sched.blocks_per_decision"] = float64(out.Blocks) / float64(stats.Decisions)
		r.Metrics["sched.swaps_per_kblock"] = float64(stats.Swaps) / (float64(out.Blocks) / 1000)
	}
	if out.Trace != nil {
		return r, []traceSet{*out.Trace}, nil
	}
	return r, []traceSet{tr.set(name)}, nil
}

// setupRepeats is how many times a run sets its system up; setup_s is the
// median.
const setupRepeats = 15

// setUp brings a system up setupRepeats times, taking each down at once but
// the last, which it returns with the seconds every set-up took.
func setUp[T any](up func() (T, error), down func(T) error) (last T, seconds []float64, err error) {
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if last, err = up(); err != nil {
			return last, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			if err = down(last); err != nil {
				return last, nil, err
			}
		}
	}
	return last, seconds, nil
}

// measureServing sets the workload's system up, drives it, stops it, and in a
// traced run takes the extra measurements that need a second system.
func measureServing(sv serving, p plan, tr *tracer) (out outcome, setups []float64, used usage, stats childStats, err error) {
	sys, setups, err := setUp(
		func() (*system, error) { return sv.setup(p.traced) },
		func(s *system) error {
			s.closeConns()
			_, _, err := s.fleet.stop()
			return err
		})
	if err != nil {
		return out, nil, used, stats, err
	}
	out, err = sv.drive(sys, clock{p, time.Now()}, tr)
	sys.closeConns()
	used, stats, serr := sys.fleet.stop()
	if err == nil {
		err = serr
	}
	if err == nil && p.traced && sv.extra != nil {
		err = sv.extra(&out)
	}
	return out, setups, used, stats, err
}

// measureChild does the same for a workload that runs whole in a child.
func measureChild(name string, o options) (out outcome, setups []float64, used usage, err error) {
	args := []string{"-role", "workload", "-workload", name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.traced {
		args = append(args, "-trace", "1")
	}
	child, setups, err := setUp(
		func() (*proc, error) { return spawn(&struct{}{}, args...) },
		func(p *proc) error {
			_, _, err := p.stop()
			return err
		})
	if err != nil {
		return out, nil, used, err
	}
	if _, err := io.WriteString(child.stdin, "GO\n"); err != nil {
		child.kill()
		return out, nil, used, err
	}
	if err := child.expect("RESULT", &out); err != nil {
		child.kill()
		return out, nil, used, err
	}
	used, _, err = child.stop()
	return out, setups, used, err
}

// print writes every metric by name with its unit, one per line.
func (r result) print(w io.Writer, workload string, o options) {
	kind := "end-to-end, untraced"
	if o.traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g (%s)", workload, o.seed, o.seconds, kind)
	for _, wd := range workloads {
		if wd.Name == workload {
			fmt.Fprintf(w, "; op = %s", wd.Op)
		}
	}
	fmt.Fprintln(w)
	for _, d := range r.defs {
		if v, ok := r.Metrics[d.Name]; ok || !o.traced {
			fmt.Fprintf(w, "%-32s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if r.Attempted > 0 {
		fmt.Fprintf(w, "%-32s %16d\n%-32s %16d\n", "attempted", r.Attempted, "failed", r.Failed)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// printJSON writes the driver's result line: exactly the declared metrics.
func (r result) printJSON(w io.Writer) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range r.defs {
		doc.Metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runSuite is the whole benchmark in one command: every workload untraced,
// then the traced run — one traced window per workload and the ladder once —
// then a JSON summary. It claims nothing: baselines are whatever a later
// change measures on its own parent.
func runSuite(o options) int {
	t0 := time.Now()
	type row struct {
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
		Failed   int                `json:"failed"`
	}
	rows := map[string]*row{}
	ok := true
	for _, w := range workloads {
		r, _, err := measure(w.Name, o)
		if err != nil {
			fatal(err)
		}
		r.print(os.Stdout, w.Name, o)
		rows[w.Name] = &row{EndToEnd: r.Metrics, Failed: r.Failed}
		ok = ok && r.Correct
	}
	to := o
	to.traced = true
	var sets []traceSet
	for _, w := range workloads {
		r, s, err := measure(w.Name, to)
		if err != nil {
			fatal(err)
		}
		r.print(os.Stdout, w.Name, to)
		sets = append(sets, s...)
		rows[w.Name].PerLayer = r.Metrics
		rows[w.Name].Failed += r.Failed
		ok = ok && r.Correct
	}
	shared := result{Metrics: map[string]float64{}, defs: perLayer}
	set, err := ladder(shared.Metrics, to.ladderBudget(), to.seed)
	if err != nil {
		fatal(err)
	}
	shared.print(os.Stdout, "ladder and calibration (every workload)", to)
	if err := writeTrace(o.out, o.seed, append(sets, set)); err != nil {
		fatal(err)
	}
	doc := struct {
		Seed      int64              `json:"seed"`
		Seconds   float64            `json:"seconds"`
		TotalS    float64            `json:"total_s"`
		Correct   bool               `json:"correct"`
		Workloads map[string]*row    `json:"workloads"`
		Ladder    map[string]float64 `json:"ladder"`
		Claim     any                `json:"claim"`
	}{o.seed, o.seconds, time.Since(t0).Seconds(), ok, rows, shared.Metrics, nil}
	b, err := json.Marshal(doc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", b)
	if !ok {
		return 1
	}
	return 0
}

// worsening is how much worse v is than base, as a share of base; an
// improvement is negative.
func worsening(d metricDef, base, v float64) float64 {
	if d.Higher {
		return (base - v) / base
	}
	return (v - base) / base
}

// agreeRuns is how many runs of each workload make one of -agree's two sets.
const agreeRuns = 3

// runAgree is the benchmark's own noise check: two sets of untraced runs of
// the same code, compared metric by metric against the bounds. It compares
// what the driver compares, at a smaller size: a set's value is the median of
// its runs, run k of both sets takes seed+k, and the sets alternate, so that
// a machine that changes pace between one minute and the next does so under
// both.
func runAgree(o options) int {
	var sets [2]map[string]map[string][]float64 // set -> workload -> metric -> one value per run
	for i := range sets {
		sets[i] = map[string]map[string][]float64{}
	}
	for _, w := range workloads {
		for i := range sets {
			sets[i][w.Name] = map[string][]float64{}
		}
		for k := 0; k < agreeRuns; k++ {
			run := o
			run.seed += int64(k)
			for i := range sets {
				r, _, err := measure(w.Name, run)
				if err != nil {
					fatal(err)
				}
				if !r.Correct {
					fatal(fmt.Errorf("%s: %d of %d ops failed", w.Name, r.Failed, r.Attempted))
				}
				for name, v := range r.Metrics {
					sets[i][w.Name][name] = append(sets[i][w.Name][name], v)
				}
			}
		}
	}
	fmt.Printf("medians of %d runs a set, seeds %d to %d\n", agreeRuns, o.seed, o.seed+agreeRuns-1)
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := median(sets[0][w.Name][d.Name]), median(sets[1][w.Name][d.Name])
			verdict := ""
			if worsening(d, a, b) > d.Bound || worsening(d, b, a) > d.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n",
				w.Name, d.Name, a, b, 100*worsening(d, a, b), 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d pairs disagree beyond their bound\n", bad)
		return 1
	}
	return 0
}
