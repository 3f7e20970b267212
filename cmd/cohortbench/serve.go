package main

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"cohort"
	"cohort/internal/bench"
	"cohort/internal/obsrv"
)

// startServe brings up the live observability plane for a bench run:
//
//   - /debug/pprof profiles the sweep while it executes (start the server
//     before the experiments so the CPU profile can cover them);
//   - /trace runs the observed benchmark point on demand and streams a
//     fresh Chrome trace (the same point -trace writes to a file);
//   - /metrics runs the observed point once per mode on first scrape and
//     serves its per-subsystem counters, cached for later scrapes.
//
// It returns a function that blocks until Ctrl-C so the endpoints outlive
// the sweep.
func startServe(addr, experiment string, p bench.Params) (wait func(), err error) {
	w, q, batch := observedPoint(experiment, p)
	var (
		once sync.Once
		reg  = cohort.NewRegistry()
		rerr error
	)
	collect := func() {
		for _, mode := range []bench.Mode{bench.Cohort, bench.MMIO, bench.DMA} {
			res, err := bench.Run(bench.RunConfig{
				Workload: w, Mode: mode, QueueSize: q, Batch: batch, Verify: true,
			})
			if err != nil {
				rerr = err
				return
			}
			src := fmt.Sprintf("%v/%v q=%d", w, mode, q)
			ms := []cohort.Metric{{Name: "cycles", Value: res.Cycles}, {Name: "instructions", Value: res.Instructions}}
			ms = append(ms, cohort.FieldMetrics(res.Metrics.Dir)...)
			ms = append(ms, cohort.FieldMetrics(res.Metrics.Net)...)
			if mode == bench.Cohort {
				ms = append(ms, cohort.FieldMetrics(res.Metrics.Engine)...)
			} else {
				ms = append(ms, cohort.FieldMetrics(res.Metrics.Maple)...)
			}
			snapshot := ms
			reg.Register(src, func() []cohort.Metric { return snapshot })
		}
	}

	srv := obsrv.New(obsrv.Options{
		MetricsText: func(out io.Writer) error {
			once.Do(collect)
			if rerr != nil {
				return rerr
			}
			return reg.WritePrometheus(out)
		},
		TraceJSON: func(out io.Writer) error {
			return bench.WriteTrace(out, w, q, batch)
		},
	})
	if err := srv.Serve(addr); err != nil {
		return nil, err
	}
	fmt.Printf("observability plane on http://%s (%s; observed point: %v q=%d)\n\n",
		srv.Addr(), strings.Join(srv.Routes(), " "), w, q)
	return func() {
		obsrv.AwaitShutdown(
			fmt.Sprintf("experiments done; serving on http://%s until interrupted (Ctrl-C)", srv.Addr()),
			func() { srv.Close() })
	}, nil
}
