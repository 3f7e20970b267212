package obsrv

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec, rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Options{MetricsText: func(w io.Writer) error {
		_, err := io.WriteString(w, "# TYPE cohort_pushes gauge\ncohort_pushes{source=\"q\"} 3\n")
		return err
	}})
	rec, body := get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(body, `cohort_pushes{source="q"} 3`) {
		t.Errorf("body = %q", body)
	}
}

func TestMetricsEndpointMissingSourceIs404(t *testing.T) {
	s := New(Options{})
	for _, path := range []string{"/metrics", "/trace"} {
		if rec, _ := get(t, s.Handler(), path); rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, rec.Code)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := New(Options{TraceJSON: func(w io.Writer) error {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}})
	rec, body := get(t, s.Handler(), "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace body is not JSON: %v", err)
	}
}

func TestHealthzHealthy(t *testing.T) {
	s := New(Options{Health: func() []Health {
		return []Health{
			{Name: "dgemm", Idle: 5 * time.Millisecond},
			{Name: "fft", Idle: time.Second}, // idle without pending input is healthy
		}
	}})
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, body)
	}
	var doc healthzBody
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || len(doc.Engines) != 2 {
		t.Errorf("doc = %+v", doc)
	}
}

func TestHealthzStalledAndParkedAre503(t *testing.T) {
	for name, h := range map[string]Health{
		"stalled": {Name: "dgemm", Stalled: true, Idle: 80 * time.Millisecond},
		"parked":  {Name: "dgemm", Err: errors.New("synthetic device fault").Error()},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Options{Health: func() []Health { return []Health{h} }})
			rec, body := get(t, s.Handler(), "/healthz")
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503; body %s", rec.Code, body)
			}
			var doc healthzBody
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Status != "unhealthy" {
				t.Errorf("status field = %q", doc.Status)
			}
		})
	}
}

// TestHealthzDegradedStays200: contained faults mark the service degraded —
// visible in the status field — but keep it alive from an orchestrator's
// point of view. An actual unhealthy component still wins and flips to 503.
func TestHealthzDegradedStays200(t *testing.T) {
	s := New(Options{Health: func() []Health {
		return []Health{
			{Name: "sched", Degraded: "2 terminal faults, 1 kill contained"},
			{Name: "dgemm", Idle: time.Millisecond},
		}
	}})
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 for degraded-but-alive; body %s", rec.Code, body)
	}
	var doc healthzBody
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "degraded" {
		t.Errorf("status field = %q, want degraded", doc.Status)
	}

	s = New(Options{Health: func() []Health {
		return []Health{
			{Name: "sched", Degraded: "1 kill contained"},
			{Name: "dgemm", Err: "device fault"},
		}
	}})
	if rec, _ := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 when a component is unhealthy alongside degradation", rec.Code)
	}
}

func TestHealthzNoSourceIsOK(t *testing.T) {
	rec, _ := get(t, New(Options{}).Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d, want 200", rec.Code)
	}
}

func TestPprofIndex(t *testing.T) {
	rec, body := get(t, New(Options{}).Handler(), "/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profile list: %q", body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s := New(Options{MetricsText: func(w io.Writer) error {
		_, err := io.WriteString(w, "cohort_up 1\n")
		return err
	}})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr() empty after Serve")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "cohort_up 1") {
		t.Errorf("body = %q", b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestDocsEndpoint: a snapshot document is served as indented JSON, and a
// path with no source wired 404s rather than serving "null".
func TestDocsEndpoint(t *testing.T) {
	if rec, _ := get(t, New(Options{}).Handler(), "/stats/windows"); rec.Code != http.StatusNotFound {
		t.Errorf("status = %d without a source, want 404", rec.Code)
	}

	type stage struct {
		Samples uint64  `json:"samples"`
		MeanNs  float64 `json:"mean_ns"`
	}
	s := New(Options{Docs: map[string]func() any{"/stats/windows": func() any {
		return []map[string]any{{
			"tenant": "acme",
			"stages": map[string]stage{"compute": {Samples: 41, MeanNs: 7300}},
		}}
	}}})
	rec, body := get(t, s.Handler(), "/stats/windows")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var doc []struct {
		Tenant string           `json:"tenant"`
		Stages map[string]stage `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	if len(doc) != 1 || doc[0].Tenant != "acme" || doc[0].Stages["compute"].Samples != 41 {
		t.Errorf("decoded doc = %+v", doc)
	}
	if !strings.Contains(body, "\n  ") {
		t.Errorf("document not indented for curl readability: %q", body)
	}
}

// TestIndexListsWiredRoutes: the / index lists exactly the wired routes — a
// daemon's snapshot documents appear, and a gateway without a policy
// controller does not advertise /policy (which would 404).
func TestIndexListsWiredRoutes(t *testing.T) {
	index := func(opts Options) []string {
		t.Helper()
		rec, body := get(t, New(opts).Handler(), "/")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		head, routes, ok := strings.Cut(body, "\n\n")
		if !ok || head != "cohort observability" {
			t.Fatalf("index body = %q", body)
		}
		return strings.Fields(routes)
	}
	doc := func() any { return nil }
	daemon := index(Options{
		MetricsText: func(io.Writer) error { return nil },
		TraceJSON:   func(io.Writer) error { return nil },
		Events:      func(uint64, int) any { return nil },
		Drain:       func(bool) any { return nil },
		Docs: map[string]func() any{
			"/sessions": doc, "/stats/slo": doc,
			"/stats/windows": doc, "/policy": doc,
		},
	})
	want := []string{"/debug/pprof/", "/drain", "/events", "/healthz", "/metrics", "/policy",
		"/sessions", "/stats/slo", "/stats/windows", "/trace"}
	if !slices.Equal(daemon, want) {
		t.Errorf("daemon index = %q, want %q", daemon, want)
	}

	gateway := index(Options{
		Events: func(uint64, int) any { return nil },
		Docs: map[string]func() any{
			"/sessions": doc, "/stats/slo": doc, "/ring": doc, "/shards": doc,
		},
	})
	want = []string{"/debug/pprof/", "/events", "/healthz", "/ring", "/sessions", "/shards", "/stats/slo"}
	if !slices.Equal(gateway, want) {
		t.Errorf("gateway index = %q, want %q", gateway, want)
	}

	bare := New(Options{})
	if got := index(Options{}); !slices.Equal(got, bare.Routes()) || !slices.Equal(got, []string{"/debug/pprof/", "/healthz"}) {
		t.Errorf("bare index = %q, Routes() = %q", got, bare.Routes())
	}
}

// TestJSONEndpointHeaders pins the response headers on every JSON endpoint:
// an explicit media type and no-store caching, so intermediaries never serve
// a stale health or SLO snapshot.
func TestJSONEndpointHeaders(t *testing.T) {
	docs := map[string]func() any{
		"/sessions":      func() any { return []string{} },
		"/stats/slo":     func() any { return map[string]any{"degraded": ""} },
		"/stats/windows": func() any { return map[string]any{"tenants": []string{}} },
		"/policy":        func() any { return map[string]any{"enabled": false} },
		"/ring":          func() any { return map[string]any{"version": 1} },
		"/shards":        func() any { return []string{} },
	}
	s := New(Options{
		Health: func() []Health { return []Health{{Name: "e"}} },
		Events: func(since uint64, max int) any { return map[string]any{"next": since, "events": []string{}} },
		Drain:  func(bool) any { return map[string]any{"draining": false} },
		Docs:   docs,
	})
	paths := []string{"/healthz", "/events", "/drain"}
	for path := range docs {
		paths = append(paths, path)
	}
	for _, path := range paths {
		rec, body := get(t, s.Handler(), path)
		if rec.Code != http.StatusOK {
			t.Errorf("%s status = %d, body %s", path, rec.Code, body)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
		if !json.Valid([]byte(body)) {
			t.Errorf("%s body is not JSON: %q", path, body)
		}
	}
}

func TestSLOAndWindowsEndpoints(t *testing.T) {
	// No source wired: 404, never "null".
	for _, path := range []string{"/stats/slo", "/stats/windows", "/events"} {
		if rec, _ := get(t, New(Options{}).Handler(), path); rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d without a source, want 404", path, rec.Code)
		}
	}
	s := New(Options{Docs: map[string]func() any{
		"/stats/slo":     func() any { return map[string]any{"degraded": "tenant a: compute p99 over"} },
		"/stats/windows": func() any { return map[string]any{"tenants": []map[string]any{{"tenant": "a"}}} },
	}})
	if _, body := get(t, s.Handler(), "/stats/slo"); !strings.Contains(body, "compute p99 over") {
		t.Errorf("/stats/slo body = %q", body)
	}
	if _, body := get(t, s.Handler(), "/stats/windows"); !strings.Contains(body, `"tenant": "a"`) {
		t.Errorf("/stats/windows body = %q", body)
	}
}

// TestEventsQueryParsing pins the /events cursor protocol: since/max pass
// through to the source, defaults apply, and malformed parameters are 400s.
func TestEventsQueryParsing(t *testing.T) {
	var gotSince uint64
	var gotMax int
	s := New(Options{Events: func(since uint64, max int) any {
		gotSince, gotMax = since, max
		return map[string]any{"next": since}
	}})

	if rec, _ := get(t, s.Handler(), "/events"); rec.Code != http.StatusOK {
		t.Fatalf("bare /events status = %d", rec.Code)
	}
	if gotSince != 0 || gotMax != eventsDefaultMax {
		t.Errorf("defaults: since=%d max=%d, want 0/%d", gotSince, gotMax, eventsDefaultMax)
	}

	if rec, _ := get(t, s.Handler(), "/events?since=42&max=7"); rec.Code != http.StatusOK {
		t.Fatalf("paged /events status = %d", rec.Code)
	}
	if gotSince != 42 || gotMax != 7 {
		t.Errorf("paged: since=%d max=%d, want 42/7", gotSince, gotMax)
	}

	for _, q := range []string{"?since=abc", "?max=0", "?max=-3", "?max=x", "?since=-1"} {
		if rec, _ := get(t, s.Handler(), "/events"+q); rec.Code != http.StatusBadRequest {
			t.Errorf("/events%s status = %d, want 400", q, rec.Code)
		}
	}
}

// TestMetricsScrapeSelfMetrics pins the scrape meta-series appended to every
// /metrics response: a scrape counter and the previous scrape's render time.
func TestMetricsScrapeSelfMetrics(t *testing.T) {
	s := New(Options{MetricsText: func(w io.Writer) error {
		_, err := io.WriteString(w, "cohort_up 1\n")
		return err
	}})
	_, body := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "cohort_scrape_total 1\n") {
		t.Errorf("first scrape body missing cohort_scrape_total 1:\n%s", body)
	}
	if !strings.Contains(body, "cohort_scrape_duration_ns 0\n") {
		t.Errorf("first scrape should report 0 prior duration:\n%s", body)
	}
	_, body = get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "cohort_scrape_total 2\n") {
		t.Errorf("second scrape body missing cohort_scrape_total 2:\n%s", body)
	}
	if strings.Contains(body, "cohort_scrape_duration_ns 0\n") {
		t.Errorf("second scrape should report the first scrape's nonzero duration:\n%s", body)
	}
}

// TestHealthzDrainingStatus: a draining engine row flips the status string
// to "draining" while the code stays 200 — routing tiers eject on the
// string, load balancers keep the probe green until the process exits.
func TestHealthzDrainingStatus(t *testing.T) {
	s := New(Options{Health: func() []Health {
		return []Health{{Name: "sched", Draining: true}, {Name: "srv"}}
	}})
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("draining /healthz status = %d, want 200", rec.Code)
	}
	if !strings.Contains(body, `"status": "draining"`) {
		t.Errorf("draining /healthz body = %s", body)
	}

	// Unhealthy outranks draining: a stalled engine makes the whole body 503
	// even while drain mode is on.
	s = New(Options{Health: func() []Health {
		return []Health{{Name: "sched", Draining: true}, {Name: "eng", Err: "stalled"}}
	}})
	rec, body = get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "unhealthy"`) {
		t.Errorf("unhealthy+draining = %d %s, want 503 unhealthy", rec.Code, body)
	}

	// Draining outranks degraded.
	s = New(Options{Health: func() []Health {
		return []Health{{Name: "sched", Draining: true}, {Name: "eng", Degraded: "slow"}}
	}})
	_, body = get(t, s.Handler(), "/healthz")
	if !strings.Contains(body, `"status": "draining"`) {
		t.Errorf("draining+degraded body = %s, want draining", body)
	}
}

// TestDrainEndpoint: POST triggers, GET only reads, other methods are 405,
// and an unwired /drain is 404.
func TestDrainEndpoint(t *testing.T) {
	triggers := 0
	s := New(Options{Drain: func(trigger bool) any {
		if trigger {
			triggers++
		}
		return map[string]any{"draining": triggers > 0, "triggers": triggers}
	}})
	h := s.Handler()

	if rec, body := get(t, h, "/drain"); rec.Code != http.StatusOK || !strings.Contains(body, `"draining": false`) {
		t.Fatalf("GET /drain before trigger = %d %s", rec.Code, body)
	}
	if triggers != 0 {
		t.Fatal("GET /drain triggered a drain")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/drain", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"draining": true`) {
		t.Fatalf("POST /drain = %d %s", rec.Code, rec.Body.String())
	}
	if triggers != 1 {
		t.Fatalf("POST /drain ran %d triggers, want 1", triggers)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/drain", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, POST" {
		t.Fatalf("DELETE /drain = %d Allow=%q, want 405 with GET, POST", rec.Code, rec.Header().Get("Allow"))
	}

	if rec, _ := get(t, New(Options{}).Handler(), "/drain"); rec.Code != http.StatusNotFound {
		t.Fatalf("unwired /drain = %d, want 404", rec.Code)
	}
}

// TestRingAndShardsEndpoints: both serve their provider's JSON when wired
// and 404 when not — single-daemon deployments never grow phantom cluster
// endpoints.
func TestRingAndShardsEndpoints(t *testing.T) {
	s := New(Options{Docs: map[string]func() any{
		"/ring":   func() any { return map[string]any{"version": 7} },
		"/shards": func() any { return []map[string]any{{"name": "s0", "state": "healthy"}} },
	}})
	h := s.Handler()
	if rec, body := get(t, h, "/ring"); rec.Code != http.StatusOK || !strings.Contains(body, `"version": 7`) {
		t.Fatalf("/ring = %d %s", rec.Code, body)
	}
	if rec, body := get(t, h, "/shards"); rec.Code != http.StatusOK || !strings.Contains(body, `"state": "healthy"`) {
		t.Fatalf("/shards = %d %s", rec.Code, body)
	}
	bare := New(Options{}).Handler()
	for _, path := range []string{"/ring", "/shards"} {
		if rec, _ := get(t, bare, path); rec.Code != http.StatusNotFound {
			t.Errorf("unwired %s = %d, want 404", path, rec.Code)
		}
	}
}
