//go:build linux

package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"cohort"
	"cohort/internal/bench"
)

// The two workloads with no server, native-chain and sim-paper, run whole in
// a "-role workload" child, so that their CPU and memory are read from rusage
// like a server's. The child sets the workload up, says READY, and runs it
// only if the parent then says GO — the parent starts several children just
// to time their set-up.

// roleWorkload is the child's main.
func roleWorkload(name string, o options) {
	var drive func(clock, *tracer) (outcome, error)
	switch name {
	case "native-chain":
		rig, err := setupChain(o.seed)
		if err != nil {
			fatal(err)
		}
		drive = rig.drive
	case "sim-paper":
		drive = newSim(bench.DefaultParams().QueueSizes()).drive
	default:
		fatal(fmt.Errorf("workload %q does not run in a child", name))
	}
	say("READY", struct{}{})
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	if strings.TrimSpace(line) == "GO" {
		var tr *tracer
		if o.traced {
			tr = newTracer()
		}
		out, err := drive(clock{newPlan(o.seconds, o.traced), time.Now()}, tr)
		if err != nil {
			fatal(err)
		}
		if tr != nil {
			ts := tr.set(name)
			out.Trace = &ts
		}
		say("RESULT", out)
		awaitParent()
	}
	sayStats(childStats{})
}

// --- native-chain --------------------------------------------------------------

const (
	chainChunk = 512   // words per push: 256 AES blocks, then 64 SHA blocks
	chainOut   = 256   // words a chunk yields
	chainQueue = 16384 // words per queue
)

// chainRig is the paper's two accelerators chained the way a library user
// runs them: two Fifos, ChainWith, a producer and a consumer.
type chainRig struct {
	in, out *cohort.Fifo[cohort.Word]
	engines []*cohort.Engine
	pl      satPayload
}

func setupChain(seed int64) (*chainRig, error) {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 16)
	rng.Read(key)
	r := &chainRig{pl: newSatPayload(rng, chainChunk, func(in []cohort.Word) []cohort.Word {
		return sha256Ref(aes128Ref(key, in))
	})}
	var err error
	if r.in, err = cohort.NewFifo[cohort.Word](chainQueue); err != nil {
		return nil, err
	}
	if r.out, err = cohort.NewFifo[cohort.Word](chainQueue); err != nil {
		return nil, err
	}
	aes := cohort.NewAES128()
	if err := aes.Configure(key); err != nil {
		return nil, err
	}
	r.engines, err = cohort.ChainWith(r.in, r.out, chainQueue,
		[]cohort.RegisterOption{cohort.WithBatch(64)}, aes, cohort.NewSHA256())
	return r, err
}

// drive pushes chunks until clk ends, closes the input, and pops until the
// chain has drained. A chunk's latency runs from the start of its push to the
// pop of its last output word.
func (r *chainRig) drive(clk clock, tr *tracer) (outcome, error) {
	o := outcome{Windows: make([]window, clk.n)}
	for i := range o.Windows {
		o.Windows[i].Seconds = clk.window.Seconds()
	}
	// The producer stamps each chunk's push (start, end) for the consumer;
	// the queue is far deeper than the chunks the chain can hold.
	stamps, err := cohort.NewFifo[time.Time](4096)
	if err != nil {
		return o, err
	}
	pushed := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			t0 := time.Now()
			if !t0.Before(clk.end()) {
				break
			}
			r.in.PushSlice(r.pl.in[n%len(r.pl.in)])
			stamps.Push(t0)
			stamps.Push(time.Now())
		}
		r.in.Close()
		pushed <- n
	}()
	buf := make([]cohort.Word, chainOut)
	filled := 0
	p0 := time.Now()
	for op := 0; ; {
		n := r.out.TryPopInto(buf[filled:])
		if n == 0 {
			if r.out.Drained() {
				break
			}
			runtime.Gosched()
			continue
		}
		if filled += n; filled < chainOut {
			continue
		}
		now := time.Now()
		t0, t1 := stamps.Pop(), stamps.Pop()
		if op%64 != 0 || slices.Equal(buf, r.pl.want[op%len(r.pl.want)]) {
			o.Completed++
			w := clk.idx(now)
			if w >= 0 {
				o.Windows[w].Ops++
				o.Windows[w].BytesIn += 8 * chainChunk
				o.Windows[w].LatUs = append(o.Windows[w].LatUs, us(now.Sub(t0)))
			}
			if tr != nil && w == clk.n-1 {
				root := tr.add("chunk", uint64(op), -1, t0, now)
				tr.add("fifo.PushSlice", uint64(op), root, t0, t1)
				tr.add("fifo.TryPopInto", uint64(op), root, p0, now)
			}
		}
		op, filled, p0 = op+1, 0, now
	}
	o.Attempted = <-pushed
	o.Failed = o.Attempted - o.Completed
	o.Blocks = o.Completed * chainChunk / 64
	if clk.traced {
		var wordsIn, wakeups, sleeps uint64
		for _, e := range r.engines {
			st := e.StatsDetail()
			wordsIn += st.WordsIn
			wakeups += st.Wakeups
			sleeps += st.BackoffSleeps
		}
		kblocks := float64(o.Blocks) / 1000
		o.Layer = map[string]float64{
			"fifo.push_stalls_per_kblock": float64(r.in.Stats().PushStalls) / kblocks,
			"fifo.pop_stalls_per_kblock":  float64(r.out.Stats().PopStalls) / kblocks,
			"engine.words_per_wakeup":     float64(wordsIn) / float64(wakeups),
			"engine.backoff_sleeps_per_s": float64(sleeps) / time.Since(clk.start).Seconds(),
		}
	}
	return o, nil
}

// --- sim-paper -------------------------------------------------------------------

//go:embed reference.json
var referenceJSON []byte

// band is one row of the paper's Table 3: the range its peak speedup spans.
type band struct {
	Accel string  `json:"accel"`
	Row   string  `json:"row"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

func referenceBands() []band {
	var doc struct {
		Bands []band `json:"bands"`
	}
	if err := json.Unmarshal(referenceJSON, &doc); err != nil {
		fatal(fmt.Errorf("reference.json: %w", err))
	}
	return doc.Bands
}

// simPoint is one run of the grid.
type simPoint struct {
	w     bench.Workload
	mode  bench.Mode
	size  int
	batch int
	label string // cohort-min, cohort, mmio, dma
}

// simRig is the Table 2 grid: SHA and AES, each as Cohort at its smallest
// batch, Cohort at batch 64, MMIO and DMA, over queue sizes 64 to 8192.
type simRig struct {
	grid []simPoint
}

// newSim builds the grid over the given queue sizes: the paper's, except in
// the self-test, which takes the smallest two.
func newSim(sizes []int) *simRig {
	p := bench.DefaultParams()
	r := &simRig{}
	for _, w := range []bench.Workload{bench.SHA, bench.AES} {
		minBatch := map[bench.Workload]int{bench.SHA: 8, bench.AES: 2}[w]
		for _, size := range sizes {
			r.grid = append(r.grid,
				simPoint{w, bench.Cohort, size, minBatch, "cohort-min"},
				simPoint{w, bench.Cohort, size, p.MaxBatch, "cohort"},
				simPoint{w, bench.MMIO, size, 0, "mmio"},
				simPoint{w, bench.DMA, size, 0, "dma"})
		}
	}
	return r
}

// sweep is one pass over the grid.
type sweep struct {
	window
	cycles uint64
	layer  map[string]float64
	peaks  []string // one line per Table 3 row: simulated peak against the paper's band
}

// run simulates every grid point once, verified.
func (r *simRig) run(tr *tracer) (sweep, error) {
	s := sweep{layer: map[string]float64{}}
	crc := crc32.NewIEEE()
	cyc := map[string]uint64{} // "<accel>/<label>/<size>" -> cycles
	t0 := time.Now()
	for i, pt := range r.grid {
		p0 := time.Now()
		res, err := bench.Run(bench.RunConfig{Workload: pt.w, Mode: pt.mode, QueueSize: pt.size, Batch: pt.batch, Verify: true})
		if err != nil {
			return s, err
		}
		p1 := time.Now()
		tr.add("bench.Run:"+pt.w.String()+"/"+pt.label, uint64(i), -1, p0, p1)
		s.Ops++
		if res.Verified {
			s.BytesIn += float64(8 * pt.size)
			// Host time per 1000 simulated cycles: one sample per point, and
			// of one magnitude whatever the point's queue size.
			s.LatUs = append(s.LatUs, us(p1.Sub(p0))/res.KiloCycles())
		} else {
			s.Failed++
		}
		s.cycles += res.Cycles
		fmt.Fprintf(crc, "%d %d %+v\n", res.Cycles, res.Instructions, res.Metrics)
		accel := strings.ToLower(pt.w.String())
		cyc[fmt.Sprintf("%s/%s/%d", accel, pt.label, pt.size)] = res.Cycles
		m := res.Metrics
		s.layer["sim.noc_flits"] += float64(m.Net.Flits)
		s.layer["sim.noc_hops"] += float64(m.Net.Hops)
		s.layer["sim.dir_inv_sent"] += float64(m.Dir.InvSent)
		s.layer["sim.engine_inv_wakeups"] += float64(m.Engine.InvWakeups)
		s.layer["sim.engine_ptr_updates"] += float64(m.Engine.PtrUpdates)
		s.layer["sim.core_cache_misses"] += float64(m.CoreCache.Misses)
		if pt.label != "cohort-min" {
			s.layer["sim.host_ms_"+pt.label] += float64(p1.Sub(p0)) / float64(time.Millisecond)
			if pt.size == 1024 {
				s.layer["sim.kcycles_"+accel+"_"+pt.label] = res.KiloCycles()
			}
		}
	}
	s.Seconds = time.Since(t0).Seconds()
	s.layer["sim.stats_crc32"] = float64(crc.Sum32())
	s.layer["sim.mcycles_per_host_s"] = float64(s.cycles) / 1e6 / s.Seconds
	s.layer["sim.ref_err"], s.peaks = r.refErr(cyc)
	return s, nil
}

// refErr is the mean, over the six rows of Table 3, of how far the simulated
// peak speedup lies outside the paper's band, as a share of the band's
// midpoint. 0 means every peak is inside its band.
func (r *simRig) refErr(cyc map[string]uint64) (float64, []string) {
	bands := referenceBands()
	total := 0.0
	var peaks []string
	for _, b := range bands {
		num := map[string]string{"vs_mmio": "mmio", "vs_dma": "dma", "batching": "cohort-min"}[b.Row]
		peak := 0.0
		for _, pt := range r.grid {
			if pt.label != "cohort" || strings.ToLower(pt.w.String()) != b.Accel {
				continue
			}
			sp := float64(cyc[fmt.Sprintf("%s/%s/%d", b.Accel, num, pt.size)]) / float64(cyc[fmt.Sprintf("%s/cohort/%d", b.Accel, pt.size)])
			peak = math.Max(peak, sp)
		}
		dist := math.Max(0, math.Max(b.Lo-peak, peak-b.Hi))
		total += dist / ((b.Lo + b.Hi) / 2)
		peaks = append(peaks, fmt.Sprintf("%s %-8s simulated peak speedup %.2f, paper %.2f-%.2f", b.Accel, b.Row, peak, b.Lo, b.Hi))
	}
	return total / float64(len(bands)), peaks
}

// simSweepSeconds is what one sweep is taken to last when the measuring time
// is turned into a number of sweeps. The number must not depend on how fast
// this host happens to be: peak RSS grows with the sweeps run, and a count
// that flipped between 3 and 4 made it bimodal.
const simSweepSeconds = 5

// drive runs whole sweeps of the grid, each one window: in a traced run as
// many as the plan has windows, otherwise one per simSweepSeconds of
// measuring time. Every point builds a fresh SoC, so the only warm-up is of
// the Go heap: the points of the smallest queue size, once.
func (r *simRig) drive(clk clock, tr *tracer) (outcome, error) {
	var o outcome
	warm := simRig{}
	for _, pt := range r.grid {
		if pt.size == r.grid[0].size {
			warm.grid = append(warm.grid, pt)
		}
	}
	if _, err := warm.run(nil); err != nil {
		return o, err
	}
	sweeps := clk.n
	if !clk.traced {
		sweeps = max(1, int(clk.measured().Seconds()/simSweepSeconds))
	}
	var last sweep
	crcs := map[float64]bool{}
	for n := 0; n < sweeps; n++ {
		var t *tracer
		if n == sweeps-1 {
			t = tr // nil unless this is a traced run
		}
		s, err := r.run(t)
		if err != nil {
			return o, err
		}
		o.Windows = append(o.Windows, s.window)
		o.Attempted += s.Ops
		o.Failed += s.Failed
		o.Completed += int(s.cycles / 1000)
		crcs[s.layer["sim.stats_crc32"]] = true
		last = s
	}
	if len(crcs) != 1 {
		return o, fmt.Errorf("simulated statistics differ between sweeps of one run")
	}
	o.Blocks = o.Attempted - o.Failed
	for _, line := range last.peaks {
		fmt.Fprintf(os.Stderr, "sim-paper: %s (sim_ref_err %.4f)\n", line, last.layer["sim.ref_err"])
	}
	o.Layer = last.layer
	return o, nil
}
