package bench

import "testing"

// TestRunAllocationCeilings caps the heap allocations of one unverified run
// at queue size 1024, per workload and mode: the simulator's row of the
// allocation ledger. What remains is cold: building the SoC, first touches
// of directory lines and memory pages, process goroutines, and the
// harness's own input and output slices. The warm datapath (MSHRs, MMIO
// ops, NoC messages, directory transactions, device blocks) allocates
// nothing, so a regression there multiplies by the run's thousands of
// transactions and breaks the ceiling.
//
// The ceiling is the measured count plus a tenth, headroom for allocations
// the Go runtime and map implementation make differently across releases.
func TestRunAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime makes allocations of its own")
	}
	for _, c := range []struct {
		w        Workload
		m        Mode
		batch    int
		parent   float64 // before the datapath stopped allocating
		measured float64 // Go 1.24, linux/amd64
	}{
		{SHA, Cohort, 64, 12310, 1037},
		{SHA, MMIO, 0, 14066, 252},
		{SHA, DMA, 0, 8387, 860},
		{AES, Cohort, 64, 30362, 1130},
		{AES, MMIO, 0, 19191, 256},
		{AES, DMA, 0, 10271, 943},
	} {
		cfg := RunConfig{Workload: c.w, Mode: c.m, QueueSize: 1024, Batch: c.batch}
		n := testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling := c.measured + c.measured/10; n > ceiling {
			t.Errorf("%v/%v: %.0f allocations per run, ceiling %.0f (measured %.0f, %.0f before the datapath stopped allocating)",
				c.w, c.m, n, ceiling, c.measured, c.parent)
		}
	}
}
