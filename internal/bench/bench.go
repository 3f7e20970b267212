// Package bench is the evaluation harness (paper §5-§6): it builds the
// 4-tile SoC, runs the SHA/AES streaming benchmarks over the three
// communication modes (Cohort, MMIO, coherent DMA), sweeps queue size and
// batching factor, verifies every output cryptographically against a
// reference, and reformats the measurements into the paper's figures and
// tables (Fig. 8-11, Tables 2-3).
package bench

import (
	"crypto/aes"
	"crypto/sha256"
	"fmt"

	"cohort/internal/accel"
	"cohort/internal/coherence"
	"cohort/internal/cpu"
	"cohort/internal/maple"
	"cohort/internal/mmio"
	"cohort/internal/noc"
	"cohort/internal/osmodel"
	"cohort/internal/soc"
	"cohort/internal/trace"

	ceng "cohort/internal/engine"
)

// Workload selects the accelerator under test.
type Workload int

// Workloads of §5.2 used in the evaluation.
const (
	SHA Workload = iota
	AES
)

func (w Workload) String() string {
	if w == SHA {
		return "SHA"
	}
	return "AES"
}

// inWords/outWords per accelerator block (§5.3: 8 pushes + 4 pops for SHA,
// 2 + 2 for AES).
func (w Workload) ratio() (in, out int) {
	if w == SHA {
		return 8, 4
	}
	return 2, 2
}

func (w Workload) device() *accel.BlockDevice {
	if w == SHA {
		return accel.NewSHADevice()
	}
	return accel.NewAESDevice()
}

// Mode selects the communication API.
type Mode int

// Communication modes of Table 2.
const (
	Cohort Mode = iota
	MMIO
	DMA
)

func (m Mode) String() string { return [...]string{"Cohort", "MMIO", "DMA-Coherent"}[m] }

// Params mirrors Table 2 ("Benchmark Tuning Parameters").
type Params struct {
	Accelerators   []Workload
	Modes          []Mode
	MinQueue       int // elements
	MaxQueue       int
	MinBatch       int
	MaxBatch       int
	DMAGranularity int // bytes, upper bound per DMA invocation
}

// DefaultParams returns Table 2's values.
func DefaultParams() Params {
	return Params{
		Accelerators:   []Workload{AES, SHA},
		Modes:          []Mode{Cohort, MMIO, DMA},
		MinQueue:       64,
		MaxQueue:       8192,
		MinBatch:       2,
		MaxBatch:       64,
		DMAGranularity: 256,
	}
}

// QueueSizes returns the sweep points (powers of two, MinQueue..MaxQueue).
func (p Params) QueueSizes() []int {
	var out []int
	for s := p.MinQueue; s <= p.MaxQueue; s *= 2 {
		out = append(out, s)
	}
	return out
}

// RunConfig is one benchmark point.
type RunConfig struct {
	Workload  Workload
	Mode      Mode
	QueueSize int // queue capacity AND total elements streamed (§5.3)
	Batch     int // software batching factor (Cohort mode only)
	Verify    bool
	// Trace enables cycle-level tracing on the run's kernel; the resulting
	// snapshot lands in Result.Trace. Tracing perturbs nothing the model
	// measures (spans are recorded outside simulated time) but costs host
	// memory, so it is off in sweeps.
	Trace bool
	// SoC overrides the hardware configuration (nil = soc.DefaultConfig()),
	// for calibration studies and ablations.
	SoC *soc.Config
}

// appWorkPerWord is the application's per-element instruction count around
// each transferred word (address generation, data marshalling, loop
// control). It is identical across modes, so it cancels out of latency
// ratios at first order but sets the realistic instruction density that the
// IPC comparison (Figures 10/11) measures.
const appWorkPerWord = 8

// RunMetrics gathers the per-subsystem counters of one run, harvested after
// the simulation drains. Engine is populated in Cohort mode, Maple in
// MMIO/DMA modes; the rest are always filled.
type RunMetrics struct {
	Engine    ceng.Counters
	Maple     maple.Counters
	Dir       coherence.DirStats
	Net       noc.Stats
	MMIO      mmio.Stats // core-side requester (tile 0)
	CoreCache coherence.CacheStats
	DevCache  coherence.CacheStats
}

// Result is one measurement.
type Result struct {
	Cycles       uint64
	Instructions uint64
	IPC          float64
	Verified     bool
	Metrics      RunMetrics
	// Trace is the run's trace snapshot when RunConfig.Trace was set.
	Trace *trace.Snapshot
}

// KiloCycles returns latency in the units of Figures 8/9.
func (r Result) KiloCycles() float64 { return float64(r.Cycles) / 1000 }

// input generates the deterministic element stream for a run.
func input(cfg RunConfig) []uint64 {
	data := make([]uint64, cfg.QueueSize)
	seed := uint64(cfg.QueueSize)*1315423911 ^ uint64(cfg.Workload+1)*2654435761
	x := seed
	for i := range data {
		// xorshift64 keeps the stream cheap and reproducible.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = x
	}
	return data
}

// reference computes the expected output words for a workload over data
// with the standard library, not with the from-scratch AES the device runs,
// so a defect in that kernel cannot also hide in the check.
func reference(w Workload, data []uint64) []uint64 {
	in, _ := w.ratio()
	cipher, _ := aes.NewCipher(make([]byte, aes.BlockSize)) // zero key: no CSR in the sweep
	var out []uint64
	var ct [aes.BlockSize]byte
	for b := 0; b+in <= len(data); b += in {
		block := accel.WordsToBytes(data[b : b+in])
		switch w {
		case SHA:
			sum := sha256.Sum256(block)
			out = append(out, accel.BytesToWords(sum[:])...)
		case AES:
			cipher.Encrypt(ct[:], block)
			out = append(out, accel.BytesToWords(ct[:])...)
		}
	}
	return out
}

func verify(w Workload, data, got []uint64) bool {
	want := reference(w, data)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// rig is one fresh SoC per run (runs never share warmed state). Each run
// closes the rig's kernel once finish has harvested it, ending the
// server-style processes still parked when the simulation drained.
type rig struct {
	s    *soc.SoC
	os   *osmodel.OS
	core *cpu.Core
	pr   *osmodel.Process
}

func newRig(cfg RunConfig) (*rig, error) {
	scfg := soc.DefaultConfig()
	if cfg.SoC != nil {
		scfg = *cfg.SoC
	}
	s := soc.New(scfg)
	if cfg.Trace {
		s.K.EnableTracing()
	}
	core := s.AddCore(0)
	s.AddCore(1) // second Ariane core, idle in these single-threaded benchmarks
	os := osmodel.New(s)
	pr, err := os.NewProcess()
	if err != nil {
		return nil, err
	}
	pr.AttachCore(core)
	return &rig{s: s, os: os, core: core, pr: pr}, nil
}

// finish harvests the per-subsystem counters — and, when tracing was on, the
// run's trace snapshot — into res. Call after the simulation has drained.
func (r *rig) finish(cfg RunConfig, res *Result) {
	m := &res.Metrics
	if len(r.s.Engines) > 0 {
		m.Engine = r.s.Engines[0].Stats()
	}
	if len(r.s.Maples) > 0 {
		m.Maple = r.s.Maples[0].Stats()
	}
	m.Dir = r.s.Coh.Stats()
	m.Net = r.s.Net.Stats()
	m.MMIO = r.s.Bus.Requester(0).Stats()
	m.CoreCache = r.s.Coh.Cache(0).Stats()
	if c := r.s.Coh.Cache(2); c != nil {
		m.DevCache = c.Stats()
	}
	if cfg.Trace {
		if snap, ok := r.s.K.TraceSnapshot(fmt.Sprintf("%v/%v q=%d", cfg.Workload, cfg.Mode, cfg.QueueSize)); ok {
			res.Trace = &snap
		}
	}
}

// Run executes one benchmark point and returns the measurement.
func Run(cfg RunConfig) (Result, error) {
	switch cfg.Mode {
	case Cohort:
		return runCohort(cfg)
	case MMIO:
		return runMMIO(cfg)
	case DMA:
		return runDMA(cfg)
	}
	return Result{}, fmt.Errorf("bench: unknown mode %d", cfg.Mode)
}

// runCohort: initialise the SPSC queues, register, then push and pop in
// batches until queue size is reached (§5.3).
func runCohort(cfg RunConfig) (Result, error) {
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.s.K.Close()
	inW, outW := cfg.Workload.ratio()
	eng := r.s.AddEngine(2, cfg.Workload.device(), 0)
	data := input(cfg)
	batch := cfg.Batch
	if batch < inW {
		batch = inW // at least one accelerator block per batch
	}
	inQ, err := r.pr.AllocQueue(8, uint64(cfg.QueueSize))
	if err != nil {
		return Result{}, err
	}
	outQ, err := r.pr.AllocQueue(8, uint64(cfg.QueueSize))
	if err != nil {
		return Result{}, err
	}
	var res Result
	var got []uint64
	r.core.Run("bench", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, inQ.Desc, outQ.Desc, osmodel.RegisterCohortOptions{}); err != nil {
			panic(err)
		}
		ctx.ResetCounters()
		for off := 0; off < len(data); off += batch {
			end := off + batch
			if end > len(data) {
				end = len(data)
			}
			ctx.Compute(appWorkPerWord / 2 * (end - off))
			inQ.PushBatch(ctx, data[off:end], batch)
			nOut := (end - off) / inW * outW
			res2 := outQ.PopBatch(ctx, nOut, batch)
			ctx.Compute(appWorkPerWord / 2 * nOut)
			got = append(got, res2...)
		}
		res.Cycles = uint64(ctx.Cycles())
		res.Instructions = ctx.Counters().Instructions
		res.IPC = ctx.IPC()
	})
	r.s.Run(0)
	r.finish(cfg, &res)
	if cfg.Verify {
		res.Verified = verify(cfg.Workload, data, got)
		if !res.Verified {
			return res, fmt.Errorf("bench: %v/%v output verification failed", cfg.Workload, cfg.Mode)
		}
	}
	return res, nil
}

// runMMIO: word-by-word uncached transfers; the core must collect each
// block's output before feeding the next block (§5.3).
func runMMIO(cfg RunConfig) (Result, error) {
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.s.K.Close()
	inW, outW := cfg.Workload.ratio()
	unit := r.s.AddMaple(2, cfg.Workload.device())
	data := input(cfg)
	var res Result
	var got []uint64
	r.core.Run("bench", func(ctx *cpu.Ctx) {
		r.os.SetupMaple(ctx, r.pr, unit)
		base := unit.MMIOBase()
		ctx.ResetCounters()
		for b := 0; b+inW <= len(data); b += inW {
			for i := 0; i < inW; i++ {
				ctx.Compute(appWorkPerWord / 2)
				ctx.MMIOWrite(base+maple.RegDataIn, data[b+i])
			}
			for i := 0; i < outW; i++ {
				got = append(got, ctx.MMIORead(base+maple.RegDataOut))
				ctx.Compute(appWorkPerWord / 2)
			}
		}
		res.Cycles = uint64(ctx.Cycles())
		res.Instructions = ctx.Counters().Instructions
		res.IPC = ctx.IPC()
	})
	r.s.Run(0)
	r.finish(cfg, &res)
	if cfg.Verify {
		res.Verified = verify(cfg.Workload, data, got)
		if !res.Verified {
			return res, fmt.Errorf("bench: %v/%v output verification failed", cfg.Workload, cfg.Mode)
		}
	}
	return res, nil
}

// runDMA: the coherent-DMA API (MMIO programming writes plus a completion
// wait) is invoked for each data block copied to/from the unit (§5.3), with
// transfers capped at the Table 2 granularity.
func runDMA(cfg RunConfig) (Result, error) {
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.s.K.Close()
	inW, outW := cfg.Workload.ratio()
	unit := r.s.AddMaple(2, cfg.Workload.device())
	data := input(cfg)
	// Each DMA API invocation moves up to the Table 2 granularity (256 B),
	// always a whole number of accelerator blocks.
	granWords := DefaultParams().DMAGranularity / 8
	granWords = granWords / inW * inW
	if granWords < inW {
		granWords = inW
	}
	var res Result
	var got []uint64
	r.core.Run("bench", func(ctx *cpu.Ctx) {
		r.os.SetupMaple(ctx, r.pr, unit)
		srcVA, err := r.pr.Alloc(uint64(len(data)*8), true)
		if err != nil {
			panic(err)
		}
		outTotal := len(data) / inW * outW
		dstVA, err := r.pr.Alloc(uint64(outTotal*8), true)
		if err != nil {
			panic(err)
		}
		flagVA, err := r.pr.Alloc(8, true)
		if err != nil {
			panic(err)
		}
		unit.SetCompletionFlag(flagVA)
		base := unit.MMIOBase()
		ctx.ResetCounters()
		dstOff := 0
		kicks := uint64(1)
		for b := 0; b+inW <= len(data); b += granWords {
			n := granWords
			if b+n > len(data) {
				n = (len(data) - b) / inW * inW
			}
			// Copy this chunk into the DMA source buffer (the to-device copy
			// of the DMA API).
			for i := 0; i < n; i++ {
				ctx.Compute(appWorkPerWord / 2)
				ctx.Store(srcVA+uint64(8*(b+i)), data[b+i])
			}
			nOut := n / inW * outW
			ctx.MMIOWrite(base+maple.RegDMASrc, srcVA+uint64(8*b))
			ctx.MMIOWrite(base+maple.RegDMADst, dstVA+uint64(8*dstOff))
			ctx.MMIOWrite(base+maple.RegDMALen, uint64(n*8))
			ctx.MMIOWrite(base+maple.RegDMAKick, 1)
			// Completion wait: spin on the coherent completion flag the unit
			// stores at the end of the transfer (common DMA practice — the
			// core keeps retiring spin-loop instructions, which is why the
			// DMA baseline's IPC is much better than MMIO's even though its
			// latency is worse).
			for ctx.Load(flagVA) != kicks {
				ctx.Compute(1)
				ctx.Proc().Wait(24)
			}
			// Copy the results back out (the from-device copy).
			for i := 0; i < nOut; i++ {
				got = append(got, ctx.Load(dstVA+uint64(8*(dstOff+i))))
				ctx.Compute(appWorkPerWord / 2)
			}
			dstOff += nOut
			kicks++
		}
		res.Cycles = uint64(ctx.Cycles())
		res.Instructions = ctx.Counters().Instructions
		res.IPC = ctx.IPC()
	})
	r.s.Run(0)
	r.finish(cfg, &res)
	if cfg.Verify {
		res.Verified = verify(cfg.Workload, data, got)
		if !res.Verified {
			return res, fmt.Errorf("bench: %v/%v output verification failed", cfg.Workload, cfg.Mode)
		}
	}
	return res, nil
}
