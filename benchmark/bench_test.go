//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cohort/client"
	"cohort/internal/bench"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// self-tests spawn the system under test: a child is this binary with -role.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-role" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(d metricDef) string {
	if d.Higher {
		return "higher"
	}
	return "lower"
}

// TestSpecMatchesBenchmarkJSON: BENCHMARK.json lists exactly the workloads and
// metrics the program prints, with the same units, directions and bounds, and
// every name and unit is inside the contract's alphabet.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.Op == "" {
			t.Errorf("workload %s has no op unit", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better(d) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and match: BENCHMARK.json %v, program %v", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract needs setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// TestPrintedNamesAreDeclared: the result line carries exactly the declared
// metrics of its kind, whatever the run measured.
func TestPrintedNamesAreDeclared(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		var buf bytes.Buffer
		result{Metrics: map[string]float64{"stray": 1}, defs: defs}.printJSON(&buf)
		var doc struct {
			Metrics map[string]struct {
				Unit string `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Metrics) != len(defs) {
			t.Errorf("printed %d metrics, declared %d", len(doc.Metrics), len(defs))
		}
		for _, d := range defs {
			if doc.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: printed unit %q, declared %q", d.Name, doc.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

// TestSameSeedSameInputs: every arrival schedule and payload derives from the
// seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	total := 3 * time.Second
	if a, b := pacedSchedule(7, pacedRate, total, 2, sha256Ref), pacedSchedule(7, pacedRate, total, 2, sha256Ref); !reflect.DeepEqual(a, b) {
		t.Error("paced schedule differs between two draws of one seed")
	}
	if a, b := churnSchedule(7, total), churnSchedule(7, total); !reflect.DeepEqual(a, b) {
		t.Error("churn schedule differs between two draws of one seed")
	}
	if a, b := serveStream(7), serveStream(7); !reflect.DeepEqual(a.tenants, b.tenants) {
		t.Error("stream tenants differ between two draws of one seed")
	}
	a, err := setupChain(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupChain(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupChain(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*chainRig{a, b, c} {
		r.in.Close() // lets the engines drain and exit
	}
	if !reflect.DeepEqual(a.pl, b.pl) {
		t.Error("chain payload differs between two draws of one seed")
	}
	if reflect.DeepEqual(a.pl, c.pl) {
		t.Error("chain payload is the same for two seeds")
	}
	if n := len(pacedSchedule(7, pacedRate, total, 2, sha256Ref)[0].reqs) + len(pacedSchedule(7, pacedRate, total, 2, sha256Ref)[1].reqs); n < 900 || n > 1500 {
		t.Errorf("%d arrivals in %v at %d/s", n, total, pacedRate)
	}
}

// TestSimRepeatsExactly: two sweeps of the simulator give identical simulated
// statistics and the same error against the paper's bands.
func TestSimRepeatsExactly(t *testing.T) {
	sizes := bench.DefaultParams().QueueSizes()[:2]
	a, err := newSim(sizes).run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSim(sizes).run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed != 0 || b.Failed != 0 {
		t.Fatalf("unverified simulator output: %d and %d points", a.Failed, b.Failed)
	}
	for _, k := range []string{"sim.stats_crc32", "sim.ref_err", "sim.noc_flits"} {
		if a.layer[k] != b.layer[k] || a.layer[k] == 0 {
			t.Errorf("%s: %v then %v", k, a.layer[k], b.layer[k])
		}
	}
	if len(referenceBands()) != 6 {
		t.Errorf("reference.json holds %d bands, Table 3 has 6", len(referenceBands()))
	}
}

// TestAPISurface: the benchmark is the yardstick later deletions are judged
// by, so it may not depend on what ROADMAP item 3 plans to delete, nor drive
// the repository's command binaries or their statistics endpoints.
func TestAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"Legacy", "Mpmc", "FieldMetrics", "/stats/", "cmd/", "cohortd", "cohortgw", "cohortload"}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if bytes.Contains(src, []byte(b)) {
				t.Errorf("%s mentions %q", f, b)
			}
		}
	}
}

// TestDriverRetiresOnOutputWords is the load driver's self-test: a 64-word
// sha256 request is retired on its 32nd output word (8 blocks x 4 words), not
// its 64th, so completions do not fall behind; and on one schedule sha256 and
// echo64 medians are within 2x of each other, as their microseconds of
// compute say they must be.
func TestDriverRetiresOnOutputWords(t *testing.T) {
	f, err := startFleet(defaultShape, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.kill()
	p50 := func(accel string, oracle func([]uint64) []uint64, wantOut int) float64 {
		c, err := client.Connect(f.front, client.Options{Tenant: "selftest", Accel: accel})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := pacedReqWords / c.InWords() * c.OutWords(); got != wantOut {
			t.Fatalf("%s: a %d-word request yields %d words, want %d", accel, pacedReqWords, got, wantOut)
		}
		clk := clock{plan{warm: 100 * time.Millisecond, window: 400 * time.Millisecond, n: 1}, time.Now()}
		loads := pacedSchedule(3, pacedRate, clk.total(), 1, oracle)
		pacedDrive([]*client.Conn{c}, loads, clk)
		out, sum := pacedCollect(loads, clk, nil).outcome(0)
		if out.Failed != 0 || out.Attempted < 100 {
			t.Fatalf("%s: %d of %d requests failed", accel, out.Failed, out.Attempted)
		}
		// Retiring on the wrong word count leaves the tail of the schedule
		// unanswered until the stream closes: the last request would wait for
		// words that only later requests bring.
		last := loads[0].reqs[len(loads[0].reqs)-1]
		if lat := time.Duration(last.last - last.due); lat > 100*time.Millisecond {
			t.Errorf("%s: the last request took %v: completions fell behind", accel, lat)
		}
		return sum.p50
	}
	var sha, echo float64
	for try := 0; try < 3; try++ { // medians of 160 requests on a shared machine
		sha, echo = p50("sha256", sha256Ref, 32), p50("echo64", echoRef, 64)
		if sha < 2*echo && echo < 2*sha {
			return
		}
	}
	t.Errorf("op p50 on one schedule: sha256 %.1f us, echo64 %.1f us — more than 2x apart", sha, echo)
}
