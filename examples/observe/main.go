// Observe: the native runtime's live observability plane in one page.
//
// A SHA-256 engine streams blocks while four instruments watch it:
//
//   - a Registry polls the engine's and queues' allocation-free counters;
//   - a FlightRecorder keeps the last moments of engine activity in a
//     fixed-memory ring, dumped automatically if the engine ever parks;
//   - a Watchdog declares the engine stalled if it stops moving words while
//     input is pending;
//   - an obsrv.Server exposes all of it over HTTP: /metrics (Prometheus),
//     /healthz (watchdog verdicts), /trace (flight-ring dump), /debug/pprof.
//
// Run and scrape:
//
//	go run ./examples/observe           # one self-scrape, then exit
//	go run ./examples/observe -hold     # keep serving until Ctrl-C
//	curl localhost:<addr>/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"cohort"
	"cohort/internal/obsrv"
)

func main() {
	hold := flag.Bool("hold", false, "keep serving until interrupted instead of exiting after one self-scrape")
	addr := flag.String("addr", "127.0.0.1:0", "listen address for the observability server")
	flag.Parse()

	toAccel, err := cohort.NewFifo[cohort.Word](256)
	if err != nil {
		log.Fatal(err)
	}
	fromAccel, err := cohort.NewFifo[cohort.Word](256)
	if err != nil {
		log.Fatal(err)
	}

	// The flight recorder is always on: the ring holds the last 4096 events
	// per track in fixed memory, and the engine dumps it automatically if it
	// parks on a terminal error.
	flight := cohort.NewFlightRecorder(4096)
	flight.SetAutoDump(os.Stderr, func(reason string) { log.Printf("flight dump: %s", reason) })

	engine, err := cohort.Register(cohort.NewSHA256(), toAccel, fromAccel,
		cohort.WithFlightRecorder(flight, "sha-engine"))
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Unregister()

	// The watchdog turns "no words moved for 250ms despite pending input"
	// into a counted, dumped, callback-visible event.
	dog := cohort.NewWatchdog(250*time.Millisecond,
		cohort.WithStallDump(flight),
		cohort.WithStallCallback(func(ev cohort.StallEvent) {
			log.Printf("STALL: %s idle %v", ev.Engine, ev.Idle)
		}))
	defer dog.Stop()
	dog.Watch("sha-engine", engine)

	reg := cohort.NewRegistry()
	cohort.RegisterFifo(reg, "to-accel", toAccel)
	cohort.RegisterFifo(reg, "from-accel", fromAccel)
	cohort.RegisterEngine(reg, "sha-engine", engine)
	cohort.RegisterWatchdog(reg, "watchdog", dog)

	srv := obsrv.New(obsrv.Options{
		MetricsText: reg.WritePrometheus,
		TraceJSON: func(w io.Writer) error {
			return flight.WriteChrome(w, "observe-demo")
		},
		Health: func() []obsrv.Health {
			hs := dog.Health()
			out := make([]obsrv.Health, len(hs))
			for i, h := range hs {
				out[i] = obsrv.Health{Name: h.Engine, Stalled: h.Stalled, Idle: h.Idle}
				if h.Err != nil {
					out[i].Err = h.Err.Error()
				}
			}
			return out
		},
	})
	if err := srv.Serve(*addr); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("observability plane on http://%s (%s)\n", srv.Addr(), strings.Join(srv.Routes(), " "))

	// Stream work through the engine so the instruments have something to
	// see: 64 blocks of 64 bytes, digest popped per block.
	digest := make([]cohort.Word, 4)
	block := make([]cohort.Word, 8)
	for i := 0; i < 64; i++ {
		block[0] = cohort.Word(i)
		toAccel.PushSlice(block)
		fromAccel.PopSlice(digest)
	}

	if *hold {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		fmt.Println("streaming done; serving until Ctrl-C")
		<-sig
		return
	}

	// Self-scrape so the default run demonstrates the full loop.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
		fmt.Printf("\nGET %s -> %s (%d lines)\n", path, resp.Status, len(lines))
		for _, l := range lines {
			if strings.Contains(l, "words_in") || strings.Contains(l, "drain_ns{") ||
				strings.Contains(l, `"status"`) || strings.Contains(l, "stalls") {
				fmt.Println("  " + l)
			}
		}
	}
}
