// Package obsrv is the live observability plane: a small embeddable HTTP
// server that exposes the runtime's metrics, traces, health, and Go
// profiling endpoints while a workload runs. It is the software analogue of
// a hardware performance-counter bus — always attached, read on demand,
// never in the data path.
//
// Endpoints with their own protocol:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/healthz        JSON liveness per engine; 503 if any engine is unhealthy
//	/trace          on-demand Chrome trace JSON dump (open in Perfetto)
//	/events         JSON structured event ring, ?since=<seq>&max=<n> paging
//	/drain          JSON drain progress; POST starts the drain
//	/debug/pprof/*  standard Go profiling (CPU, heap, goroutine, ...)
//
// Every other endpoint is a snapshot document from Options.Docs (cohortd's
// /sessions, /stats/*; cohortgw's /ring), served by one
// handler. Every JSON endpoint sets Content-Type: application/json and
// Cache-Control: no-store — the payloads are live snapshots that must never
// be served stale by an intermediary. Only wired routes are registered, and
// the / index lists exactly those; anything else is 404.
//
// The package deliberately depends only on the standard library and is
// decoupled from the runtime through the functional fields of Options, so
// the same server fronts the native runtime, the simulator, or both.
package obsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Health is one component's liveness as served by /healthz. Err is a string
// (not error) so the struct marshals to JSON directly.
type Health struct {
	Name    string        `json:"name"`
	Err     string        `json:"err,omitempty"`
	Stalled bool          `json:"stalled,omitempty"`
	Idle    time.Duration `json:"idle_ns"`
	// Degraded, when non-empty, says the component has absorbed contained
	// faults (retried transients, killed sessions) but is still serving:
	// /healthz stays 200 with status "degraded" so orchestrators keep the
	// process alive while operators see the damage report.
	Degraded string `json:"degraded,omitempty"`
	// Draining says the component is in drain mode for a rolling restart:
	// it admits nothing new but is still flushing in-flight work. /healthz
	// stays 200 with status "draining" until the last session retires, so
	// routing tiers eject the shard while its clients finish cleanly.
	Draining bool `json:"draining,omitempty"`
}

// Healthy reports whether this component is live: not stalled and not
// parked with a terminal error. A merely degraded component is healthy.
func (h Health) Healthy() bool { return h.Err == "" && !h.Stalled }

// Options wires a Server to the runtime. Every field is optional; endpoints
// whose source is nil are not routed and respond 404.
type Options struct {
	// MetricsText writes the /metrics payload (Prometheus text format).
	MetricsText func(w io.Writer) error
	// TraceJSON writes the /trace payload (Chrome trace event JSON).
	TraceJSON func(w io.Writer) error
	// Health snapshots component liveness for /healthz. /healthz is always
	// routed: with no source it reports "ok" with no rows.
	Health func() []Health
	// Events pages the structured event ring for /events: events with
	// sequence numbers after since, at most max (e.g. telem.Log.PageSince).
	Events func(since uint64, max int) any
	// Drain serves /drain: a POST invokes it with trigger=true (start
	// draining — stop admitting, flush in-flight sessions), a GET with
	// trigger=false; either way the returned drain-progress document is
	// marshaled as JSON (e.g. sched.DrainStatus).
	Drain func(trigger bool) any
	// Docs maps a path to a live snapshot served as indented JSON, e.g.
	// "/sessions" to sched.Scheduler.Sessions.
	Docs map[string]func() any
}

// eventsDefaultMax bounds an /events page when the request has no max
// parameter, keeping accidental full-ring dumps off the wire.
const eventsDefaultMax = 256

// Server serves the observability endpoints over HTTP.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	routes []string // sorted, for the index

	// Scrape self-metrics, appended to every /metrics response: how many
	// scrapes this server has answered and how long rendering the last one
	// took — the meta-signals a Prometheus operator alerts on when the
	// telemetry plane itself misbehaves.
	scrapes      atomic.Uint64
	lastScrapeNs atomic.Uint64

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// New builds a server with the given sources. Call Serve to bind a
// listener, or mount Handler on an existing server.
func New(opts Options) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.route("/healthz", s.healthz)
	if opts.MetricsText != nil {
		s.route("/metrics", s.metrics)
	}
	if opts.TraceJSON != nil {
		s.route("/trace", s.trace)
	}
	if opts.Events != nil {
		s.route("/events", s.events)
	}
	if opts.Drain != nil {
		s.route("/drain", s.drain)
	}
	for path, doc := range opts.Docs {
		s.route(path, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, doc())
		})
	}
	// net/http/pprof registers on DefaultServeMux at import; wire the
	// handlers explicitly so this mux works standalone.
	s.route("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.index)
	slices.Sort(s.routes)
	return s
}

// route mounts h on path and lists path in the index.
func (s *Server) route(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, h)
	s.routes = append(s.routes, path)
}

// Routes returns the wired paths in sorted order: what the / index lists.
func (s *Server) Routes() []string { return slices.Clone(s.routes) }

// Handler returns the root handler, for embedding into an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr (e.g. ":9120" or "127.0.0.1:0") and serves in a
// background goroutine until Close. It returns once the listener is bound,
// so Addr is valid immediately after.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after Close
	return nil
}

// Addr returns the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe to call without Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	t0 := time.Now()
	if err := s.opts.MetricsText(w); err != nil {
		// Headers are gone; best effort is to note the failure inline.
		fmt.Fprintf(w, "# metrics error: %v\n", err)
	}
	// Scrape self-metrics ride the same exposition: total scrapes answered
	// (this one included) and the render cost of the previous scrape — the
	// current one cannot time its own trailer, so each scrape reports its
	// predecessor's duration.
	n := s.scrapes.Add(1)
	fmt.Fprintf(w, "# HELP cohort_scrape_total Scrapes of this /metrics endpoint.\n")
	fmt.Fprintf(w, "# TYPE cohort_scrape_total counter\ncohort_scrape_total %d\n", n)
	fmt.Fprintf(w, "# HELP cohort_scrape_duration_ns Render time of the previous scrape.\n")
	fmt.Fprintf(w, "# TYPE cohort_scrape_duration_ns gauge\ncohort_scrape_duration_ns %d\n", s.lastScrapeNs.Load())
	s.lastScrapeNs.Store(uint64(time.Since(t0)))
}

// writeJSON is the shared JSON response path: explicit media type, no-store
// caching (every payload is a live snapshot), indented body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response writer
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="cohort-trace.json"`)
	if err := s.opts.TraceJSON(w); err != nil {
		fmt.Fprintf(w, "\n// trace error: %v\n", err)
	}
}

// healthzBody is the /healthz JSON document.
type healthzBody struct {
	Status  string   `json:"status"` // "ok", "degraded" or "unhealthy"
	Engines []Health `json:"engines"`
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{Status: "ok"}
	if s.opts.Health != nil {
		body.Engines = s.opts.Health()
	}
	// Severity order: unhealthy (503) beats draining beats degraded; the
	// latter two are both 200 — a draining or degraded daemon is still
	// serving, routing tiers read the status string to decide ejection.
	code := http.StatusOK
	degraded := false
	for _, h := range body.Engines {
		if !h.Healthy() {
			body.Status = "unhealthy"
			code = http.StatusServiceUnavailable
			break
		}
		if h.Draining {
			body.Status = "draining"
		}
		if h.Degraded != "" {
			degraded = true
		}
	}
	if body.Status == "ok" && degraded {
		body.Status = "degraded" // still 200: degraded-but-alive
	}
	writeJSON(w, code, body)
}

// events serves the structured event ring. Query parameters: since=<seq>
// resumes after a cursor from a previous page (default 0 = oldest held),
// max=<n> caps the page size (default 256; <= 0 rejected).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	max := eventsDefaultMax
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max parameter", http.StatusBadRequest)
			return
		}
		max = n
	}
	writeJSON(w, http.StatusOK, s.opts.Events(since, max))
}

// drain serves the drain-progress document and, on POST, triggers drain
// mode: the rolling-restart entry point an orchestrator hits before sending
// SIGTERM. GET is a pure status read.
func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		writeJSON(w, http.StatusOK, s.opts.Drain(true))
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.opts.Drain(false))
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "use POST to trigger drain, GET to read progress", http.StatusMethodNotAllowed)
	}
}

// index is a plain-text landing page listing the wired routes.
func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "cohort observability\n\n"+strings.Join(s.routes, "\n")+"\n") //nolint:errcheck
}

// AwaitShutdown is the shared daemon exit path: print banner (when
// non-empty), block until SIGINT or SIGTERM, then run each shutdown hook in
// order. Every cmd/ daemon funnels through here so signal handling is wired
// — and behaves — identically across them.
func AwaitShutdown(banner string, shutdown ...func()) {
	if banner != "" {
		fmt.Println(banner)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	for _, fn := range shutdown {
		fn()
	}
}
