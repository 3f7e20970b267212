package tracestat

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cohort/internal/trace"
)

// buildTrace round-trips a synthetic recorder through WriteChrome so the
// tests exercise the real wire format, not a hand-built JSON sample.
func buildTrace(t *testing.T, procs ...trace.Snapshot) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, procs...); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseResolvesMetadata(t *testing.T) {
	var clock uint64
	rec := trace.New(func() uint64 { return clock }, 0)
	rec.Track("dir0").SpanAt("GetM", 10, 5)
	rec.Track("cohort0.rcm").Instant("inv-wakeup")

	tr := buildTrace(t, rec.Snapshot("sim"))
	if len(tr.Tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tr.Tracks))
	}
	if tr.Tracks[0].Process != "sim" || tr.Tracks[0].Name != "dir0" {
		t.Errorf("track 0 = %q/%q", tr.Tracks[0].Process, tr.Tracks[0].Name)
	}
	if tr.Tracks[1].Name != "cohort0.rcm" || len(tr.Tracks[1].Instants) != 1 {
		t.Errorf("track 1 = %+v", tr.Tracks[1])
	}
}

func TestParseTraceEventsObjectForm(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"dma","ph":"X","ts":5,"dur":10,"pid":1,"tid":1},
		{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"maple0"}}
	]}`
	tr, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tracks) != 1 || tr.Tracks[0].Name != "maple0" || len(tr.Tracks[0].Spans) != 1 {
		t.Fatalf("tr = %+v", tr.Tracks[0])
	}
	if _, err := Parse(strings.NewReader("not json")); err == nil {
		t.Error("garbage input parsed without error")
	}
}

func TestSpanStatsExactQuantiles(t *testing.T) {
	rec := trace.New(func() uint64 { return 0 }, 0)
	trk := rec.Track("dir0")
	// 100 GetM spans with durations 1..100: interpolated p50=50.5, p95=95.05,
	// p99=99.01.
	for d := uint64(1); d <= 100; d++ {
		trk.SpanAt("GetM", d*200, d)
	}
	trk.SpanAt("GetS", 0, 7)

	stats := buildTrace(t, rec.Snapshot("sim")).SpanStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	g := stats[0] // GetM dominates by total
	if g.Name != "GetM" || g.Count != 100 || g.Total != 5050 || g.Min != 1 || g.Max != 100 {
		t.Errorf("GetM agg = %+v", g)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(g.P50, 50.5) || !near(g.P95, 95.05) || !near(g.P99, 99.01) {
		t.Errorf("GetM quantiles = p50=%v p95=%v p99=%v", g.P50, g.P95, g.P99)
	}
	if s := stats[1]; s.Name != "GetS" || s.Count != 1 || s.P50 != 7 || s.P99 != 7 {
		t.Errorf("GetS agg = %+v", s)
	}
}

func TestUtilizationUnionsOverlaps(t *testing.T) {
	rec := trace.New(func() uint64 { return 0 }, 0)
	busy := rec.Track("busy")
	busy.SpanAt("a", 0, 60)
	busy.SpanAt("b", 40, 20) // nested in [0,60): no extra busy time
	busy.SpanAt("c", 80, 20) // extends extent to 100
	rec.Track("quiet").Instant("tick")

	utils := buildTrace(t, rec.Snapshot("sim")).Utilization()
	if len(utils) != 2 {
		t.Fatalf("utils = %+v", utils)
	}
	if u := utils[0]; u.Track != "busy" || u.Busy != 80 || math.Abs(u.Util-0.8) > 1e-9 {
		t.Errorf("busy = %+v", u)
	}
	if u := utils[1]; u.Track != "quiet" || u.Busy != 0 || u.Util != 0 || u.Spans != 0 {
		t.Errorf("quiet = %+v", u)
	}
}

func TestCounterStatsTimeWeightedMean(t *testing.T) {
	var clock uint64
	rec := trace.New(func() uint64 { return clock }, 0)
	trk := rec.Track("dir0")
	clock = 0
	trk.Counter("occupancy", 2)
	clock = 10
	trk.Counter("occupancy", 6)
	clock = 20
	trk.Counter("occupancy", 0) // holds to trace end...
	clock = 40
	trk.Instant("end") // ...which this instant pins at 40

	stats := buildTrace(t, rec.Snapshot("sim")).CounterStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s := stats[0]
	if s.Name != "occupancy" || s.Samples != 3 || s.Min != 0 || s.Max != 6 {
		t.Errorf("stat = %+v", s)
	}
	// (2·10 + 6·10 + 0·20) / 40 = 2.0
	if math.Abs(s.Mean-2.0) > 1e-9 {
		t.Errorf("mean = %g, want 2.0", s.Mean)
	}
}

func TestCriticalPathDecomposition(t *testing.T) {
	var clock uint64
	rec := trace.New(func() uint64 { return clock }, 0)
	rcm := rec.Track("cohort0.rcm")
	cons := rec.Track("cohort0.consumer")
	dir := rec.Track("dir1")
	other := rec.Track("noc.t0.E")

	rcm.SpanAt("rcm-wait", 0, 100)
	rcm.SpanAt("rcm-wait", 300, 50)
	dir.SpanAt("GetM", 20, 30)
	dir.SpanAt("PutM", 60, 10)
	dir.SpanAt("GetS", 80, 5)
	other.SpanAt("t0>t1", 0, 500) // not part of any phase

	// Two wakeup→publish pairs (lat 25 and 40) plus one unmatched wakeup.
	clock = 100
	rcm.Instant("inv-wakeup")
	clock = 125
	cons.Instant("publish-rptr")
	clock = 350
	rcm.Instant("inv-wakeup")
	clock = 390
	cons.Instant("publish-rptr")
	clock = 600
	rcm.Instant("inv-wakeup") // no publish follows

	cp := buildTrace(t, rec.Snapshot("sim")).CriticalPath()
	if cp.ProducerWait.Count != 2 || cp.ProducerWait.Total != 150 || cp.ProducerWait.Max != 100 {
		t.Errorf("producer-wait = %+v", cp.ProducerWait)
	}
	if cp.Invalidate.Count != 3 || cp.Invalidate.Total != 45 {
		t.Errorf("invalidate = %+v", cp.Invalidate)
	}
	if len(cp.DirOps) != 3 || cp.DirOps[0].Phase != "GetM" || cp.DirOps[0].Total != 30 {
		t.Errorf("dir ops = %+v", cp.DirOps)
	}
	if cp.Drain.Count != 2 || cp.Drain.Total != 65 || cp.Drain.Max != 40 {
		t.Errorf("drain = %+v", cp.Drain)
	}
	if math.Abs(cp.Drain.Mean-32.5) > 1e-9 {
		t.Errorf("drain mean = %g", cp.Drain.Mean)
	}
}

func TestCriticalPathEmptyOnForeignTrace(t *testing.T) {
	rec := trace.New(func() uint64 { return 0 }, 0)
	rec.Track("engine").SpanAt("drain", 0, 10)
	cp := buildTrace(t, rec.Snapshot("native")).CriticalPath()
	if cp.ProducerWait.Count != 0 || cp.Invalidate.Count != 0 || cp.Drain.Count != 0 {
		t.Errorf("cp = %+v", cp)
	}
}

func TestExtentEmptyTrace(t *testing.T) {
	tr, err := Parse(strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.Extent(); ok {
		t.Error("empty trace reported an extent")
	}
	if utils := tr.Utilization(); len(utils) != 0 {
		t.Errorf("utils = %+v", utils)
	}
}
