// Serve: the multi-tenant serving stack in one page — cohortd's machinery
// run in-process.
//
// A one-engine scheduler is fronted by the wire-protocol server on a
// loopback TCP port. Two tenants connect with the client package and stream
// SHA-256 jobs concurrently: alice at weight 2, bob at weight 1. Both keep
// the engine saturated, so the weighted-fair scheduler decides who gets it —
// mid-flight, alice should hold roughly a 2:1 block lead, and the mid-run
// /sessions-style snapshot prints exactly what the daemon's HTTP endpoint
// would show. The run ends with each tenant's Done counters.
//
// Fairness only binds while both tenants are backlogged, so the jobs are
// long and the session queues deep enough to keep engine time the contended
// resource. The feed still competes with the engine for the machine's
// cores: on a two-core machine the snapshot reads between 1.1 and 2.0, as
// the engine now and then outruns a tenant's feed and the block ratio
// follows the arrival rates instead.
//
// Run:
//
//	go run ./examples/serve
//	go run ./examples/serve -blocks 20000 -quantum 32
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	blocks := flag.Int("blocks", 200000, "SHA-256 blocks per tenant")
	quantum := flag.Int("quantum", 8, "blocks per scheduling decision")
	flag.Parse()

	// The daemon side: scheduler, wire server, loopback listener.
	s := sched.New(sched.Config{
		Engines: 1, Quantum: *quantum, QueueCap: 4096,
	})
	defer s.Close()
	sv := sched.NewServer(s, nil)
	defer sv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on the deferred Close
	fmt.Printf("cohortd stack on %s: 1 engine, quantum %d\n\n", ln.Addr(), *quantum)

	// The tenant side: two concurrent clients, weights 2:1.
	inWords := cohort.NewSHA256().InWords()
	job := make([]cohort.Word, *blocks*inWords)
	for i := range job {
		job[i] = cohort.Word(i)*2654435761 + 97
	}
	type outcome struct {
		tenant string
		res    *wire.DoneReply
		err    error
		took   time.Duration
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for _, tn := range []struct {
		name   string
		weight int
	}{{"alice", 2}, {"bob", 1}} {
		wg.Add(1)
		go func(name string, weight int) {
			defer wg.Done()
			c, err := client.Connect(ln.Addr().String(), client.Options{
				Tenant: name, Accel: "sha256", Weight: weight,
			})
			if err != nil {
				results <- outcome{tenant: name, err: err}
				return
			}
			defer c.Close()
			start := time.Now()
			_, res, err := c.Stream(job)
			results <- outcome{tenant: name, res: res, err: err, took: time.Since(start)}
		}(tn.name, tn.weight)
	}

	// Mid-flight: once half the combined work is done, snapshot the live
	// session table — the /sessions payload — and read the fairness ratio
	// off it while both tenants are still backlogged.
	half := uint64(*blocks)
	seenBoth := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		infos := s.Sessions()
		if len(infos) < 2 {
			if seenBoth {
				break // a tenant already finished; the snapshot window is gone
			}
			time.Sleep(200 * time.Microsecond)
			continue // tenants still connecting
		}
		seenBoth = true
		var total uint64
		for _, in := range infos {
			total += in.Blocks
		}
		if total >= half {
			fmt.Println("mid-flight session table (what cohortd serves at /sessions):")
			fmt.Printf("  %-3s %-6s %-8s %-6s %8s %8s %9s\n",
				"id", "tenant", "accel", "weight", "blocks", "quanta", "switches")
			for _, in := range infos {
				fmt.Printf("  %-3d %-6s %-8s %-6d %8d %8d %9d\n",
					in.ID, in.Tenant, in.Accel, in.Weight, in.Blocks, in.Quanta, in.Switches)
			}
			a, b := infos[0], infos[1]
			if a.Tenant != "alice" {
				a, b = b, a
			}
			if b.Blocks > 0 {
				fmt.Printf("  weighted fairness: alice:bob = %d:%d = %.2f (weights 2:1)\n\n",
					a.Blocks, b.Blocks, float64(a.Blocks)/float64(b.Blocks))
			}
			break
		}
		time.Sleep(200 * time.Microsecond)
	}

	wg.Wait()
	close(results)
	for o := range results {
		if o.err != nil {
			log.Fatalf("%s: %v", o.tenant, o.err)
		}
		fmt.Printf("%s done in %v: %+v\n", o.tenant, o.took.Round(time.Millisecond), *o.res)
	}
}
