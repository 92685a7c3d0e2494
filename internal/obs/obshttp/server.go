// Package obshttp is the live telemetry surface over a running
// pipeline's obs.Observer: a zero-dependency, embeddable HTTP server
// exposing the metrics registry, span aggregates, flight recorder,
// timeline and Go runtime profiling while the process works. The
// pas2pd daemon mounts the same handlers on its service mux
// (Handlers.Mount), so a served pipeline and a CLI run expose one
// telemetry dialect.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (runtime gauges
//	               refreshed on each scrape)
//	/metrics.json  the same snapshot as indented JSON
//	/spans         per-stage span aggregates (count, p50/p95/p99)
//	               plus the recent-span ring
//	/timeline      Chrome trace-event JSON (Perfetto-loadable)
//	/flight        the flight recorder's retained events
//	/healthz       {"status":"ready"} while the run is live, "done"
//	               after it completes (a custom Health hook may add
//	               states such as the daemon's "draining")
//	/debug/pprof/  stdlib net/http/pprof profiles
//
// Everything is pull-based: a scrape snapshots the registry; between
// scrapes the server costs nothing on the instrumented path.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"pas2p/internal/obs"
)

// Handlers is the mountable form of the telemetry endpoints: anything
// with an *http.ServeMux — the standalone Server below, or the pas2pd
// service mux — registers the same scrape surface through it.
type Handlers struct {
	o     *obs.Observer
	start time.Time

	// Health reports the /healthz status string. The default reports
	// "ready"; the Server wires its done flag in, and the pas2pd
	// daemon reports ready/draining/done from its lifecycle.
	Health func() string

	scrapes *obs.Counter // serve.scrapes on the observed registry
}

// NewHandlers builds the telemetry handlers over an observer, which
// must carry a registry (scrapes are counted on it under
// serve.scrapes).
func NewHandlers(o *obs.Observer) (*Handlers, error) {
	if o.Reg() == nil {
		return nil, fmt.Errorf("obshttp: observer has no registry")
	}
	return &Handlers{
		o:       o,
		start:   time.Now(),
		Health:  func() string { return "ready" },
		scrapes: o.Reg().Counter("serve.scrapes"),
	}, nil
}

// Mount registers every telemetry endpoint on mux. The root index is
// not registered — the embedding server owns "/".
func (h *Handlers) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/metrics.json", h.handleMetricsJSON)
	mux.HandleFunc("/spans", h.handleSpans)
	mux.HandleFunc("/timeline", h.handleTimeline)
	mux.HandleFunc("/flight", h.handleFlight)
	// pprof.Index serves the index for the bare path too; without it
	// ServeMux would answer /debug/pprof with an untyped redirect.
	mux.HandleFunc("/debug/pprof", pprof.Index)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Server serves one Observer's telemetry. Create with Serve; stop with
// Shutdown.
type Server struct {
	o    *obs.Observer
	h    *Handlers
	ln   net.Listener
	hs   *http.Server
	done atomic.Bool
}

// Serve starts a telemetry server for o on addr (host:port; port 0
// picks a free port — read the result from Addr). The observer must
// have a registry; scrapes are counted on it under serve.scrapes.
func Serve(addr string, o *obs.Observer) (*Server, error) {
	h, err := NewHandlers(o)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: %w", err)
	}
	s := &Server{o: o, h: h, ln: ln}
	h.Health = func() string {
		if s.done.Load() {
			return "done"
		}
		return "ready"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	h.Mount(mux)
	s.hs = &http.Server{Handler: mux}
	go s.hs.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return s, nil
}

// Addr returns the actual listen address (resolves port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// SetDone flips /healthz from "ready" to "done" — the run the server
// observes has completed, but scrapes still work until Shutdown.
func (s *Server) SetDone() { s.done.Store(true) }

// Done reports whether SetDone was called.
func (s *Server) Done() bool { return s.done.Load() }

// Shutdown marks the server done, waits for in-flight scrapes
// (bounded by ctx), stops the listener, and flushes a final snapshot:
// the runtime gauges are refreshed one last time and the frozen
// registry state is returned so the caller can persist or summarise
// it. The returned snapshot is valid even when the HTTP shutdown
// errs.
func (s *Server) Shutdown(ctx context.Context) (*obs.Snapshot, error) {
	s.SetDone()
	err := s.hs.Shutdown(ctx)
	obs.CollectRuntime(s.o.Reg())
	return s.o.Reg().Snapshot(), err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `pas2p live telemetry

/metrics       Prometheus text exposition
/metrics.json  metrics snapshot as JSON
/spans         per-stage span aggregates (p50/p95/p99) + recent spans
/timeline      Chrome trace-event JSON (open in Perfetto)
/flight        flight recorder: recent structured events
/healthz       readiness (ready while running, done after)
/debug/pprof/  Go runtime profiles
`)
}

func (h *Handlers) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	writeJSON(w, map[string]any{
		"status":         h.Health(),
		"uptime_seconds": time.Since(h.start).Seconds(),
	})
}

func (h *Handlers) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	obs.CollectRuntime(h.o.Reg())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.o.Reg().Snapshot().WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (h *Handlers) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	obs.CollectRuntime(h.o.Reg())
	w.Header().Set("Content-Type", "application/json")
	h.o.Reg().Snapshot().WriteJSON(w) //nolint:errcheck // client gone
}

// spansDoc is the /spans payload: the aggregates that bound registry
// memory plus the recent ring for span-by-span inspection.
type spansDoc struct {
	TakenAt      time.Time                        `json:"taken_at"`
	Stats        map[string]obs.SpanStatsSnapshot `json:"stats"`
	Recent       []obs.SpanRecord                 `json:"recent"`
	SpansTotal   int64                            `json:"spans_total"`
	SpansDropped int64                            `json:"spans_dropped"`
}

func (h *Handlers) handleSpans(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	snap := h.o.Reg().Snapshot()
	writeJSON(w, spansDoc{
		TakenAt:      snap.TakenAt,
		Stats:        snap.SpanStats,
		Recent:       snap.Spans,
		SpansTotal:   snap.SpansTotal,
		SpansDropped: snap.SpansDropped,
	})
}

func (h *Handlers) handleTimeline(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	w.Header().Set("Content-Type", "application/json")
	// A nil timeline writes an empty trace — scrapers need not care
	// whether the run was started with timeline recording.
	h.o.TL().WriteJSON(w) //nolint:errcheck // client gone
}

func (h *Handlers) handleFlight(w http.ResponseWriter, r *http.Request) {
	h.scrapes.Inc()
	w.Header().Set("Content-Type", "application/json")
	h.o.FR().WriteJSON(w) //nolint:errcheck // client gone
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// Fetch is a tiny scrape helper for in-process checks and tests: GET
// path from the server and return the body.
func (s *Server) Fetch(path string) ([]byte, error) {
	resp, err := http.Get(s.URL() + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("obshttp: GET %s: %s", path, resp.Status)
	}
	return b, nil
}
