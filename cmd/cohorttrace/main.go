// Command cohorttrace analyses a Chrome trace-event JSON file produced by
// the Cohort runtimes (cohortbench -trace, cohortsoc -trace, or the native
// runtime's Trace/FlightRecorder dumps) and prints the numbers behind the
// timeline: per-track utilization, span duration statistics with exact
// p50/p95/p99 quantiles, counter summaries, and the producer → invalidate →
// drain critical-path decomposition matching the paper's Fig. 8 latency
// breakdown.
//
// Usage:
//
//	cohorttrace trace.json             # full text report
//	cohortbench -trace /dev/stdout | cohorttrace -   # read from stdin
//	cohorttrace -csv out/ trace.json   # also write CSV tables
//	cohorttrace -top 10 trace.json     # largest 10 span families only
//
// Timestamps are reported in the trace's native unit ("u"): cycles for
// simulator traces, microseconds for native-runtime traces.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"cohort/internal/tracestat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cohorttrace: ")
	csvDir := flag.String("csv", "", "also write spans.csv, tracks.csv, counters.csv, critpath.csv into this directory")
	top := flag.Int("top", 0, "limit the span table to the N largest families by total time (0 = all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cohorttrace [flags] <trace.json | ->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	tr, err := tracestat.Parse(in)
	if err != nil {
		log.Fatal(err)
	}

	report(os.Stdout, tr, *top)
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, tr); err != nil {
			log.Fatalf("csv: %v", err)
		}
	}
}

// report prints the full text analysis.
func report(w io.Writer, tr *tracestat.Trace, top int) {
	start, end, ok := tr.Extent()
	if !ok {
		fmt.Fprintln(w, "trace is empty: no data events")
		return
	}
	var spans, instants, samples int
	for _, t := range tr.Tracks {
		spans += len(t.Spans)
		instants += len(t.Instants)
		samples += len(t.Samples)
	}
	fmt.Fprintf(w, "Trace: %d tracks, %d spans, %d instants, %d counter samples, extent %d..%d (%d u)\n",
		len(tr.Tracks), spans, instants, samples, start, end, end-start)

	fmt.Fprintf(w, "\nTracks (busy = union of spans over the %d u extent):\n", end-start)
	fmt.Fprintf(w, "  %-12s %-22s %8s %12s %8s\n", "PROCESS", "TRACK", "SPANS", "BUSY u", "UTIL")
	for _, u := range tr.Utilization() {
		fmt.Fprintf(w, "  %-12s %-22s %8d %12d %7.1f%%\n", u.Process, u.Track, u.Spans, u.Busy, 100*u.Util)
	}

	stats := tr.SpanStats()
	shown := stats
	if top > 0 && top < len(stats) {
		shown = stats[:top]
	}
	fmt.Fprintf(w, "\nSpan stats (per event name, durations in u):\n")
	fmt.Fprintf(w, "  %-16s %8s %12s %10s %10s %10s %10s\n", "NAME", "COUNT", "TOTAL", "P50", "P95", "P99", "MAX")
	for _, s := range shown {
		fmt.Fprintf(w, "  %-16s %8d %12d %10.1f %10.1f %10.1f %10d\n",
			s.Name, s.Count, s.Total, s.P50, s.P95, s.P99, s.Max)
	}
	if len(shown) < len(stats) {
		fmt.Fprintf(w, "  ... %d more families (-top 0 for all)\n", len(stats)-len(shown))
	}

	if counters := tr.CounterStats(); len(counters) > 0 {
		fmt.Fprintf(w, "\nCounters (mean is time-weighted):\n")
		fmt.Fprintf(w, "  %-22s %-12s %8s %8s %10s %8s\n", "TRACK", "NAME", "SAMPLES", "MIN", "MEAN", "MAX")
		for _, c := range counters {
			fmt.Fprintf(w, "  %-22s %-12s %8d %8d %10.2f %8d\n", c.Track, c.Name, c.Samples, c.Min, c.Mean, c.Max)
		}
	}

	cp := tr.CriticalPath()
	fmt.Fprintf(w, "\nCritical path (Fig. 8 decomposition; phases overlap in wall-clock):\n")
	if cp.ProducerWait.Count == 0 && cp.Invalidate.Count == 0 && cp.Drain.Count == 0 {
		fmt.Fprintln(w, "  no Cohort handoff vocabulary in this trace (rcm-wait / dir ops / inv-wakeup)")
		return
	}
	fmt.Fprintf(w, "  %-16s %8s %12s %10s %10s\n", "PHASE", "COUNT", "TOTAL u", "MEAN", "MAX")
	printPhase := func(indent string, p tracestat.PhaseAgg) {
		fmt.Fprintf(w, "  %s%-*s %8d %12d %10.1f %10d\n", indent, 16-len(indent), p.Phase, p.Count, p.Total, p.Mean, p.Max)
	}
	printPhase("", cp.ProducerWait)
	printPhase("", cp.Invalidate)
	for _, op := range cp.DirOps {
		printPhase("  ", op)
	}
	printPhase("", cp.Drain)
}

// writeCSVs writes the four analysis tables as CSV files into dir.
func writeCSVs(dir string, tr *tracestat.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	i := func(v int) string { return strconv.Itoa(v) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

	write := func(name string, header []string, rows [][]string) error {
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		cw := csv.NewWriter(fh)
		cw.Write(header)  //nolint:errcheck // flushed and checked below
		cw.WriteAll(rows) //nolint:errcheck
		cw.Flush()
		if err := cw.Error(); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}

	var rows [][]string
	for _, s := range tr.SpanStats() {
		rows = append(rows, []string{s.Name, i(s.Count), u(s.Total), u(s.Min), f(s.P50), f(s.P95), f(s.P99), u(s.Max)})
	}
	if err := write("spans.csv", []string{"name", "count", "total_u", "min_u", "p50_u", "p95_u", "p99_u", "max_u"}, rows); err != nil {
		return err
	}

	rows = rows[:0]
	for _, t := range tr.Utilization() {
		rows = append(rows, []string{t.Process, t.Track, i(t.Spans), u(t.Busy), f(t.Util)})
	}
	if err := write("tracks.csv", []string{"process", "track", "spans", "busy_u", "util"}, rows); err != nil {
		return err
	}

	rows = rows[:0]
	for _, c := range tr.CounterStats() {
		rows = append(rows, []string{c.Process, c.Track, c.Name, i(c.Samples),
			strconv.FormatInt(c.Min, 10), f(c.Mean), strconv.FormatInt(c.Max, 10)})
	}
	if err := write("counters.csv", []string{"process", "track", "name", "samples", "min", "mean", "max"}, rows); err != nil {
		return err
	}

	cp := tr.CriticalPath()
	rows = rows[:0]
	add := func(group string, p tracestat.PhaseAgg) {
		rows = append(rows, []string{group, p.Phase, i(p.Count), u(p.Total), f(p.Mean), u(p.Max)})
	}
	add("producer-wait", cp.ProducerWait)
	add("invalidate", cp.Invalidate)
	for _, op := range cp.DirOps {
		add("invalidate", op)
	}
	add("drain", cp.Drain)
	return write("critpath.csv", []string{"group", "phase", "count", "total_u", "mean_u", "max_u"}, rows)
}
