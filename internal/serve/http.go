package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
)

// Handler exposes the job API:
//
//	POST /jobs                    submit a JobSpec       → 202 {"id": ...}
//	GET  /jobs                    list jobs              → 200 [Status]
//	GET  /jobs/{id}               poll one job           → 200 Status
//	GET  /jobs/{id}/result        fetch the result       → 200 (text|html|json)
//	GET  /jobs/{id}/state         a shard job's partial state (checksum-framed)
//	GET  /jobs/{id}/selftrace     the job's own LiLa v2 trace (Config.SelfProfile)
//	GET  /healthz                 liveness: 200 while serving, 503 "draining"
//	                              once shutdown has begun
//	GET  /readyz                  readiness: 200 while the server would accept
//	                              work; 503 with JSON reasons (queue-saturated,
//	                              ingest-memory-budget, draining, ...) when not
//	GET  /metrics                 obs registry snapshot (text); ?format=prom or a
//	                              Prometheus Accept header switches to the
//	                              Prometheus text exposition format
//
// With Config.Ingest set, the live streaming surface mounts too:
//
//	POST /ingest/{app}/{session}  stream LiLa records (chunked); salvage-decoded,
//	                              budget-guarded, queryable mid-session (PUT works
//	                              too, for curl -T and PUT-only uploaders)
//	GET  /ingest/stats            committed per-window aggregates + live sessions
//
// Shed submissions answer 429 with a Retry-After hint; a draining
// server answers 503. When Config.Logger is set, every request is
// access-logged with method, path, status, and elapsed time.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/state", s.handleState)
	mux.HandleFunc("GET /jobs/{id}/selftrace", s.handleSelfTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", handleMetrics)
	if s.cfg.Ingest != nil {
		// PUT too: streaming uploaders (curl -T, most profiler agents)
		// default to PUT for "send this byte stream to this path".
		mux.HandleFunc("POST /ingest/{app}/{session}", s.cfg.Ingest.HandleIngest)
		mux.HandleFunc("PUT /ingest/{app}/{session}", s.cfg.Ingest.HandleIngest)
		mux.HandleFunc("GET /ingest/stats", s.cfg.Ingest.HandleStats)
	}
	return s.accessLog(mux)
}

// handleMetrics serves the process metrics: the obs text snapshot by
// default, the Prometheus exposition format on ?format=prom or when
// the Accept header asks for a versioned Prometheus/OpenMetrics
// payload (the header scrapers send).
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	prom := format == "prom" ||
		(format == "" && (strings.Contains(accept, "version=0.0.4") ||
			strings.Contains(accept, "application/openmetrics-text")))
	switch {
	case prom:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, obs.Default().FormatProm())
	case format == "" || format == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.Default().Snapshot().Format())
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// accessLog wraps the API with one structured log line per request.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.cfg.Logger.Info("http",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"bytes", rec.bytes, "remote", r.RemoteAddr,
			"elapsed", time.Since(start).Round(time.Microsecond).String())
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrShed):
		// Back-pressure to the client: try again once the queue has
		// drained a job or memory was released.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": job.ID})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if st.Kind == "shard" {
		// A shard's deliverable is its mergeable partial state, not a
		// rendered report: it ships closed folds, which the
		// coordinator finishes.
		http.Error(w, fmt.Sprintf("job %s is a shard; fetch /jobs/%s/state", id, id),
			http.StatusConflict)
		return
	}
	res, ok := s.Result(id)
	if !ok {
		http.Error(w, fmt.Sprintf("job %s has no result yet (state %s)", id, st.State),
			http.StatusConflict)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report.FormatAll(res))
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, report.FormatHTML(res))
	case "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Status Status              `json:"status"`
			Rows   any                 `json:"rows"`
			Health *report.StudyHealth `json:"health,omitempty"`
		}{st, res.Rows, res.Health})
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
	}
}

// handleState serves a finished shard job's checksum-framed partial
// state — the coordinator's merge input. The framing's SHA-256 lets
// the client detect any damage the network added.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	data, ok := s.ShardStateBytes(id)
	if !ok {
		http.Error(w, fmt.Sprintf("job %s has no partial state (state %s, kind %s)",
			id, st.State, st.Kind), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleSelfTrace serves a job's own execution as a LiLa v2 trace —
// ready to feed back through `lagalyzer report`.
func (s *Server) handleSelfTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	data, ok := s.SelfTrace(id)
	if !ok {
		http.Error(w, fmt.Sprintf("job %s has no self-trace (state %s; server must run with self-profiling on)", id, st.State),
			http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".lila"))
	w.Write(data)
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: it answers whether the server would accept new work right
// now. A saturated job queue, an exhausted ingest memory budget, an
// ingest session cap, or a begun drain each turn it 503, with every
// applicable reason listed in the JSON body so operators see why
// traffic is being turned away rather than just that it is.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.Draining() {
		reasons = append(reasons, "draining")
	}
	if len(s.queue) >= cap(s.queue) {
		reasons = append(reasons, "queue-saturated")
	}
	if s.cfg.Ingest != nil {
		if ok, more := s.cfg.Ingest.Ready(); !ok {
			for _, reason := range more {
				if reason == "draining" && s.Draining() {
					continue // already listed
				}
				reasons = append(reasons, reason)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if len(reasons) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reasons": reasons})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"ready": true})
}

// handleHealthz is the liveness probe: 200 while serving, 503 with a
// "draining" body once SIGTERM drain begins — the endpoint itself
// keeps responding through the drain so liveness stays observable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{
			"ok":       false,
			"draining": true,
		})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"ok":       true,
		"draining": false,
	})
}
