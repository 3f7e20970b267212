// Command cohortsoc boots the simulated 4-tile SoC (Figure 2: two cores,
// an AES Cohort tile and a SHA Cohort tile), runs the Figure 5
// encrypt-then-hash pipeline through chained hardware engines, verifies the
// result against a software reference, and dumps the performance counters —
// a guided tour of the full stack.
package main

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cohort"
	"cohort/internal/accel"
	"cohort/internal/bench"
	"cohort/internal/cpu"
	"cohort/internal/obsrv"
	"cohort/internal/osmodel"
	"cohort/internal/soc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cohortsoc: ")
	blocks := flag.Int("blocks", 16, "number of 64-byte blocks to stream")
	batch := flag.Int("batch", 64, "software batching factor")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	metrics := flag.Bool("metrics", false, "also dump cache, MMIO-port and per-engine detail counters")
	serveAddr := flag.String("serve", "",
		"after the run, serve /metrics, /trace and /debug/pprof on this address (e.g. :9121) until interrupted")
	flag.Parse()

	s := soc.New(soc.DefaultConfig())
	if *tracePath != "" || *serveAddr != "" {
		s.K.EnableTracing()
	}
	core := s.AddCore(0)
	s.AddCore(1)
	aesEng := s.AddEngine(2, accel.NewAESDevice(), 0)
	shaEng := s.AddEngine(3, accel.NewSHADevice(), 0)
	kern := osmodel.New(s)
	pr, err := kern.NewProcess()
	if err != nil {
		log.Fatal(err)
	}
	pr.AttachCore(core)

	n := *blocks * 8 // words
	encryptQ, err := pr.AllocQueue(8, uint64(n))
	if err != nil {
		log.Fatal(err)
	}
	hashQ, err := pr.AllocQueue(8, uint64(n))
	if err != nil {
		log.Fatal(err)
	}
	resultQ, err := pr.AllocQueue(8, uint64(n))
	if err != nil {
		log.Fatal(err)
	}

	data := make([]byte, n*8)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	var digests []uint64
	var cycles uint64
	var ipc float64
	core.Run("app", func(ctx *cpu.Ctx) {
		if err := kern.RegisterCohort(ctx, pr, aesEng, encryptQ.Desc, hashQ.Desc, osmodel.RegisterCohortOptions{}); err != nil {
			log.Fatal(err)
		}
		if err := kern.RegisterCohort(ctx, pr, shaEng, hashQ.Desc, resultQ.Desc, osmodel.RegisterCohortOptions{}); err != nil {
			log.Fatal(err)
		}
		ctx.ResetCounters()
		encryptQ.PushBatch(ctx, accel.BytesToWords(data), *batch)
		digests = resultQ.PopBatch(ctx, *blocks*4, *batch)
		cycles = uint64(ctx.Cycles())
		ipc = ctx.IPC()
		kern.UnregisterCohort(ctx, shaEng)
		kern.UnregisterCohort(ctx, aesEng)
	})
	end := s.Run(0)
	// The engines' processes are still parked waiting for work; end them so
	// a -serve session does not keep the whole SoC alive. Counters and the
	// trace stay readable.
	s.K.Close()

	// Software reference, from the standard library rather than the AES
	// kernel the device runs: AES-ECB (zero key, no CSR passed) then SHA-256.
	zero, _ := aes.NewCipher(make([]byte, aes.BlockSize))
	ok := true
	var enc [sha256.BlockSize]byte
	for b := 0; b < *blocks; b++ {
		for o := 0; o < len(enc); o += aes.BlockSize {
			zero.Encrypt(enc[o:], data[b*64+o:])
		}
		want := sha256.Sum256(enc[:])
		got := accel.WordsToBytes(digests[b*4 : b*4+4])
		if !bytes.Equal(got, want[:]) {
			ok = false
			log.Printf("block %d digest MISMATCH", b)
		}
	}

	fmt.Printf("Cohort SoC demo: %d blocks through AES -> SHA chained engines (Figure 5)\n", *blocks)
	fmt.Printf("  verification:      %v\n", map[bool]string{true: "all digests match software reference", false: "FAILED"}[ok])
	fmt.Printf("  program window:    %d cycles, core IPC %.3f\n", cycles, ipc)
	fmt.Printf("  simulated horizon: %d cycles\n", end)
	type stat struct {
		name string
		st   any
	}
	pairs := []stat{
		{"aes engine", aesEng.Stats()},
		{"sha engine", shaEng.Stats()},
		{"directory", s.Coh.Stats()},
		{"network", s.Net.Stats()},
	}
	if *metrics {
		pairs = append(pairs,
			stat{"core mmio", s.Bus.Requester(0).Stats()},
			stat{"core0 l1", s.Coh.Cache(0).Stats()},
			stat{"aes l1.5", s.Coh.Cache(2).Stats()},
			stat{"sha l1.5", s.Coh.Cache(3).Stats()},
		)
	}
	for _, pair := range pairs {
		fmt.Printf("  %-12s %+v\n", pair.name+":", pair.st)
	}

	// And the headline, in miniature.
	res, err := bench.Run(bench.RunConfig{Workload: bench.SHA, Mode: bench.MMIO, QueueSize: *blocks * 8, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFor scale: the same SHA workload over the MMIO baseline takes %d cycles (core IPC %.3f).\n",
		res.Cycles, res.IPC)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := s.K.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}

	if *serveAddr != "" {
		// The simulation has drained, so the registry serves the run's
		// final counters; /trace streams the recorded kernel timeline and
		// /debug/pprof profiles this (still-live) process.
		reg := cohort.NewRegistry()
		for _, src := range []struct {
			name string
			st   any
		}{
			{"aes-engine", aesEng.Stats()},
			{"sha-engine", shaEng.Stats()},
			{"directory", s.Coh.Stats()},
			{"network", s.Net.Stats()},
			{"core-mmio", s.Bus.Requester(0).Stats()},
		} {
			ms := cohort.FieldMetrics(src.st)
			reg.Register(src.name, func() []cohort.Metric { return ms })
		}
		srv := obsrv.New(obsrv.Options{
			MetricsText: reg.WritePrometheus,
			TraceJSON:   s.K.WriteChromeTrace,
		})
		if err := srv.Serve(*serveAddr); err != nil {
			log.Fatal(err)
		}
		obsrv.AwaitShutdown(
			fmt.Sprintf("\nobservability plane on http://%s (%s) until interrupted (Ctrl-C)", srv.Addr(), strings.Join(srv.Routes(), " ")),
			func() { srv.Close() })
	}
}
