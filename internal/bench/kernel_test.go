package bench

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"
)

// TestRunLeavesNoGoroutines is the leak regression: a SoC can have
// server-style processes (the Cohort engine's endpoints, say) still parked
// when the simulation drains, and Run must end them all.
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

// TestTracePinned hashes the full cycle-level timeline of a traced SHA run in
// the Cohort and MMIO modes: every track, in creation order, and every span,
// instant and counter on it. Replacing a process with a kernel-context state
// machine must leave the timeline byte-identical, including the accelerator's
// busy spans on its own track.
func TestTracePinned(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		want uint32
	}{
		{Cohort, 443012453},
		{MMIO, 1225951171},
	} {
		r := run(t, RunConfig{Workload: SHA, Mode: c.mode, QueueSize: 64, Batch: 64, Trace: true})
		if r.Trace == nil {
			t.Fatalf("%v: no trace recorded", c.mode)
		}
		crc := crc32.NewIEEE()
		busy := 0
		for ti, tr := range r.Trace.Tracks {
			for _, e := range tr.Events {
				fmt.Fprintf(crc, "%d %s %s %d %d %d %d\n", ti+1, tr.Name, e.Name, e.Kind, e.Start, e.Dur, e.Value)
				if tr.Name == "sha256" && e.Name == "sha256" && e.Dur == 66 {
					busy++
				}
			}
		}
		if want := 64 / 8; busy != want {
			t.Errorf("%v: %d sha256 busy spans of 66 cycles, want %d", c.mode, busy, want)
		}
		if got := crc.Sum32(); got != c.want {
			t.Errorf("%v: trace CRC = %d, want %d", c.mode, got, c.want)
		}
	}
}
