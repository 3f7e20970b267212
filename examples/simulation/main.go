// Simulation: drive the cycle-level SoC directly — boot the 4-tile system,
// run one SHA workload over all three communication APIs (Cohort, MMIO,
// coherent DMA) and compare cycles and IPC, i.e. a single column of
// Figures 8 and 10.
//
//	go run ./examples/simulation
package main

import (
	"fmt"
	"log"

	"cohort/internal/bench"
)

func main() {
	const queueSize = 1024
	fmt.Printf("SHA-256 streaming benchmark, %d elements (queue size %d), batch 64\n\n",
		queueSize, queueSize)
	fmt.Printf("%-14s %12s %14s %8s\n", "mode", "cycles", "instructions", "IPC")

	var cohortRes bench.Result
	for _, mode := range []bench.Mode{bench.Cohort, bench.MMIO, bench.DMA} {
		res, err := bench.Run(bench.RunConfig{
			Workload:  bench.SHA,
			Mode:      mode,
			QueueSize: queueSize,
			Batch:     64,
			Verify:    true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12d %14d %8.3f\n", mode, res.Cycles, res.Instructions, res.IPC)
		if mode == bench.Cohort {
			cohortRes = res
		} else {
			fmt.Printf("%-14s %9.2fx faster with Cohort (IPC %.2fx)\n", "",
				float64(res.Cycles)/float64(cohortRes.Cycles), cohortRes.IPC/res.IPC)
		}
	}
	fmt.Println("\nEvery run is verified: the popped digests are compared against a")
	fmt.Println("SHA-256 computed on the host with crypto/sha256. See cmd/cohortbench for")
	fmt.Println("the full figure/table sweeps.")
}
