package bench

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"
)

// TestRunLeavesNoGoroutines is the leak regression: every mode's SoC has
// server-style processes (engine, accelerator, MAPLE feeder/drainer) still
// parked when the simulation drains, and Run must end them all.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, m := range []Mode{Cohort, MMIO, DMA} {
		run(t, RunConfig{Workload: SHA, Mode: m, QueueSize: 64, Batch: 64})
		// A process goroutine exits just after its last handshake with the
		// kernel, so give the stragglers a moment.
		n := runtime.NumGoroutine()
		for i := 0; n > base && i < 200; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Fatalf("%v: %d goroutines after Run, %d before", m, n, base)
		}
	}
}

// TestSimulatedStatisticsPinned hashes every simulated statistic of the
// benchmark's grid at the two smallest queue sizes, in the benchmark's CRC
// format. A kernel or model change that reorders a single event moves the
// hash.
func TestSimulatedStatisticsPinned(t *testing.T) {
	const want = 75529572
	p := DefaultParams()
	crc := crc32.NewIEEE()
	for _, w := range []Workload{SHA, AES} {
		minBatch := map[Workload]int{SHA: 8, AES: 2}[w]
		for _, size := range p.QueueSizes()[:2] {
			for _, cfg := range []RunConfig{
				{Workload: w, Mode: Cohort, QueueSize: size, Batch: minBatch},
				{Workload: w, Mode: Cohort, QueueSize: size, Batch: p.MaxBatch},
				{Workload: w, Mode: MMIO, QueueSize: size},
				{Workload: w, Mode: DMA, QueueSize: size},
			} {
				r := run(t, cfg)
				fmt.Fprintf(crc, "%d %d %+v\n", r.Cycles, r.Instructions, r.Metrics)
			}
		}
	}
	if got := crc.Sum32(); got != want {
		t.Fatalf("simulated statistics CRC = %d, want %d", got, want)
	}
}
