// Package server is the long-lived normalization service behind the
// normalized binary: it accepts CSV or dataset-generator normalization
// jobs over HTTP, runs them on a bounded worker pool with a FIFO
// queue, streams per-stage progress as Server-Sent Events, caches
// results by content hash, and exposes health and metrics endpoints.
// The paper (§7) frames Normalize as an interactive, incremental tool;
// a resumable job API over a persistent process is the operational
// form of that framing.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (CSV or generator + options)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel (queued: immediate; running: ~100ms)
//	GET    /v1/jobs/{id}/events live progress as SSE (replays history)
//	GET    /v1/jobs/{id}/result result as JSON (?format=sql for DDL,
//	                            ?include=rows to embed table instances)
//	GET    /v1/jobs/{id}/telemetry  per-stage telemetry, also mid-run
//	GET    /healthz             liveness (always 200 while serving)
//	GET    /readyz              readiness (503 once draining)
//	GET    /debug/vars          expvar, including pipeline stage metrics
//
// Persistent servers (DataDir set) additionally serve the replication
// leader endpoints — /v1/replication/{stream,snapshot,status} — so warm
// standbys can mirror the write-ahead log; see internal/replicate.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"normalize"
	"normalize/internal/export"
	"normalize/internal/guard"
	"normalize/internal/jobstore"
	"normalize/internal/replicate"
)

// Config bounds the server's resources; zero values select defaults.
type Config struct {
	// Workers is the size of the normalization worker pool (default 2).
	Workers int
	// JobWorkers is the default per-job validation worker count applied
	// to submissions that omit options.workers; 0 keeps the pipeline
	// default (all CPUs). With several concurrent jobs, capping each
	// job's work-stealing pool avoids oversubscribing the host. The
	// resolved value is persisted with the job, so crash replays run
	// with the workers the submission actually used. Requests that set
	// options.workers explicitly are never overridden.
	JobWorkers int
	// QueueDepth bounds the FIFO job queue; a full queue rejects
	// submissions with 503 (default 32).
	QueueDepth int
	// MaxBodyBytes caps the request body — and therefore the uploaded
	// CSV size (default 8 MiB).
	MaxBodyBytes int64
	// CacheEntries bounds the content-hash result cache; 0 uses the
	// default (64), negative disables caching.
	CacheEntries int
	// CacheBytes bounds the result cache by the summed encoded size of
	// its entries — delta-derived (lineage child) results are charged
	// like any other; 0 uses the default (64 MiB), negative disables
	// the byte budget (count-only bounding).
	CacheBytes int64
	// MetricsName registers the aggregated per-stage pipeline metrics
	// under this expvar name (default "normalize_stages"; "-" skips
	// registration, for processes embedding several servers).
	MetricsName string
	// SpillDir is the directory for transient spill files (out-of-core
	// CSV ingest and the budget-governed PLI store). Defaults to
	// DataDir/spill when DataDir is set, else the OS temp dir. A
	// server-owned spill dir is swept of leftover spill files at
	// startup and again at drain, so a crash can never leak them
	// across process lifetimes. Requests cannot choose the directory:
	// the server overrides any client-supplied value.
	SpillDir string
	// DataDir, when non-empty, makes job state crash-safe: submissions,
	// lifecycle transitions, and terminal results are appended to a
	// write-ahead log in this directory, and a restart replays it —
	// re-enqueueing whatever was queued or running, rehydrating the
	// result cache, and keeping terminal jobs queryable. Empty keeps
	// the server fully in-memory.
	DataDir string
	// Fsync forces an fsync after every log append. Without it, job
	// state survives process death (SIGKILL included) but not power
	// loss or kernel crash.
	Fsync bool
	// Logf receives one line per request and per recovered panic; nil
	// disables request logging.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MetricsName == "" {
		c.MetricsName = "normalize_stages"
	}
	if c.SpillDir == "" && c.DataDir != "" {
		c.SpillDir = filepath.Join(c.DataDir, "spill")
	}
}

// Server is the normalization service: an HTTP handler plus the worker
// pool behind it. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg      Config
	m        *manager
	metrics  *normalize.MetricsPublisher
	mux      *http.ServeMux
	store    *jobstore.Store
	recovery *jobstore.RecoveryReport
}

// New builds a server and starts its worker pool. The per-stage
// metrics aggregate across all jobs and are registered in expvar under
// cfg.MetricsName. With cfg.DataDir set, New first replays the
// persisted job state from disk; jobs that were queued or running when
// the previous process died re-enter the queue before any new
// submission is accepted.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: spill dir: %w", err)
		}
		// The previous process may have died mid-job; its transient
		// spill files are garbage now.
		sweepSpill(cfg.SpillDir, cfg.Logf)
	}
	s := &Server{cfg: cfg, metrics: &normalize.MetricsPublisher{}}
	if cfg.MetricsName != "-" {
		if err := s.metrics.Publish(cfg.MetricsName); err != nil {
			return nil, err
		}
	}
	var p *persister
	if cfg.DataDir != "" {
		store, report, err := jobstore.Open(cfg.DataDir, jobstore.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("server: open job store: %w", err)
		}
		s.store, s.recovery = store, report
		p = &persister{store: store, logf: cfg.Logf}
	}
	s.m = newManager(cfg.Workers, cfg.QueueDepth, cfg.CacheEntries, cfg.CacheBytes, s.metrics, p)
	s.m.spillDir = cfg.SpillDir

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.m.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.store != nil {
		// A persistent server is automatically a replication leader:
		// warm standbys stream its WAL through these endpoints.
		leader := replicate.NewLeader(s.store, cfg.Logf)
		leader.Register(mux)
		if cfg.MetricsName != "-" {
			name := cfg.MetricsName + "_replication"
			if expvar.Get(name) == nil {
				expvar.Publish(name, leader.Vars())
			}
		}
	}
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP surface wrapped in request logging and
// panic recovery.
func (s *Server) Handler() http.Handler {
	return s.middleware(s.mux)
}

// Shutdown drains the server: readiness flips to 503, new submissions
// are rejected, in-flight jobs get until ctx ends to finish, then the
// stragglers are cancelled (salvaging partial results), the worker
// pool exits, and the job store is flushed and closed.
func (s *Server) Shutdown(ctx context.Context) {
	s.m.Shutdown(ctx)
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.logf("server: close job store: %v", err)
		}
	}
	// The pool has exited: any spill file still present in a
	// server-owned dir was leaked by a cancelled or crashed job.
	if s.cfg.SpillDir != "" {
		sweepSpill(s.cfg.SpillDir, s.cfg.Logf)
	}
}

// sweepSpill removes leftover transient spill files — out-of-core
// ingest blocks and compressed PLI segments — from a server-owned
// spill directory. Both producers create files via os.CreateTemp and
// remove them on every orderly exit path, so anything matching here is
// an orphan from a crash or kill. Never called on the shared OS temp
// dir (other processes' files live there).
func sweepSpill(dir string, logf func(string, ...any)) {
	for _, pattern := range []string{"ingest-spill-*.bin", "pli-spill-*.bin"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			continue
		}
		for _, m := range matches {
			if err := os.Remove(m); err == nil && logf != nil {
				logf("server: removed leaked spill file %s", m)
			}
		}
	}
}

// RecoveryReport returns what New recovered from cfg.DataDir, or nil
// when the server runs without persistence.
func (s *Server) RecoveryReport() *jobstore.RecoveryReport {
	return s.recovery
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// statusWriter captures the response code for the request log and
// forwards Flush for SSE streaming.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying flusher so SSE responses stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps the mux in request logging and guard-based panic
// recovery: a panicking handler yields a 500 (when nothing was written
// yet) and a logged stack instead of a dead connection and process.
func (s *Server) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		err := guard.Run("http "+r.Method+" "+r.URL.Path, func() error {
			h.ServeHTTP(sw, r)
			return nil
		})
		if err != nil {
			if !sw.wrote {
				http.Error(sw, "internal server error", http.StatusInternalServerError)
			}
			s.logf("server: %+v", err)
		}
		s.logf("server: %s %s %d %s", r.Method, r.URL.Path, sw.code, time.Since(start).Round(time.Millisecond))
	})
}

// jobRequest is the POST /v1/jobs body: exactly one data source (an
// inline CSV relation or a built-in dataset generator) plus options.
type jobRequest struct {
	// Name names the uploaded CSV relation (default "upload").
	Name string `json:"name,omitempty"`
	// CSV is the inline relation, header first, empty fields as nulls.
	CSV string `json:"csv,omitempty"`
	// Lenient skips malformed CSV rows instead of failing the job.
	Lenient bool `json:"lenient,omitempty"`
	// Dataset selects a built-in generator instead of an upload.
	Dataset *datasetSpec `json:"dataset,omitempty"`
	// Parent makes this a delta job: CSV carries only appended rows
	// (same header as the parent's input) and the job re-normalizes the
	// parent's instance plus those rows incrementally, reusing the
	// parent run's FD cover and scoring facts. Parent names a prior job
	// by ID or by content-hash cache key; the referenced job must have
	// completed ("done") without degradations. Delta jobs cannot combine
	// with dataset generators, lenient parsing, or resource budgets.
	Parent string `json:"parent,omitempty"`
	// Options maps onto normalize.Options.
	Options optionsSpec `json:"options"`
}

// datasetSpec parameterizes a built-in dataset generator.
type datasetSpec struct {
	Generator string  `json:"generator"`
	Scale     float64 `json:"scale,omitempty"`   // tpch scale factor
	Artists   int     `json:"artists,omitempty"` // musicbrainz size
	Seed      int64   `json:"seed,omitempty"`
}

// optionsSpec is the wire form of normalize.Options.
type optionsSpec struct {
	Mode           string `json:"mode,omitempty"`    // bcnf | 3nf | 2nf
	Closure        string `json:"closure,omitempty"` // optimized | improved | naive
	MaxLhs         int    `json:"max_lhs,omitempty"`
	Workers        int    `json:"workers,omitempty"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	MaxRows        int    `json:"max_rows,omitempty"`
	MaxFDs         int    `json:"max_fds,omitempty"`
	MaxMemoryBytes int64  `json:"max_memory_bytes,omitempty"`
}

// buildSpec validates a request into an immutable jobSpec. A delta
// job's cache key cannot be derived here — it needs the parent
// reference resolved to a content key first — so spec.key stays empty
// until the manager's submit path (or decodeSpec, which persists the
// resolved key) fills it via finalizeDeltaKey.
func buildSpec(req *jobRequest) (*jobSpec, error) {
	hasCSV := req.CSV != ""
	hasGen := req.Dataset != nil
	if hasCSV == hasGen {
		return nil, errors.New("exactly one of csv or dataset must be set")
	}
	if req.Parent != "" {
		if hasGen {
			return nil, errors.New("delta jobs take appended csv rows, not a dataset generator")
		}
		if req.Lenient {
			return nil, errors.New("delta jobs cannot use lenient parsing")
		}
		if req.Options.MaxRows != 0 || req.Options.MaxFDs != 0 || req.Options.MaxMemoryBytes != 0 {
			return nil, errors.New("delta jobs cannot use resource budgets")
		}
	}
	if req.Options.MaxLhs < 0 || req.Options.Workers < 0 || req.Options.TimeoutMS < 0 ||
		req.Options.MaxRows < 0 || req.Options.MaxFDs < 0 || req.Options.MaxMemoryBytes < 0 {
		return nil, errors.New("options must be non-negative")
	}
	mode, err := normalize.ParseMode(req.Options.Mode)
	if err != nil {
		return nil, err
	}
	closure, err := normalize.ParseClosure(req.Options.Closure)
	if err != nil {
		return nil, err
	}
	spec := &jobSpec{
		opts: normalize.Options{
			Mode:    mode,
			Closure: closure,
			MaxLhs:  req.Options.MaxLhs,
			Workers: req.Options.Workers,
			Timeout: time.Duration(req.Options.TimeoutMS) * time.Millisecond,
			Budget: normalize.Budget{
				MaxRows:        req.Options.MaxRows,
				MaxFDs:         req.Options.MaxFDs,
				MaxMemoryBytes: req.Options.MaxMemoryBytes,
			},
		},
	}
	if hasCSV {
		spec.csv = []byte(req.CSV)
		spec.name = req.Name
		if spec.name == "" {
			spec.name = "upload"
		}
		spec.lenient = req.Lenient
	} else {
		switch req.Dataset.Generator {
		case "tpch", "musicbrainz", "horse", "plista", "amalgam1", "flight":
		default:
			return nil, fmt.Errorf("unknown generator %q", req.Dataset.Generator)
		}
		spec.gen = req.Dataset.Generator
		spec.scale = req.Dataset.Scale
		spec.artists = req.Dataset.Artists
		spec.seed = req.Dataset.Seed
	}
	spec.parentRef = req.Parent
	if spec.parentRef == "" {
		spec.key = cacheKey(spec)
	}
	return spec, nil
}

// jobStatus is the wire form of a job's lifecycle state.
type jobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Key is the job's content-hash cache key — the stable name a later
	// delta submission can pass as "parent" (job IDs die with the job
	// listing; keys are derived from content and survive restarts).
	Key string `json:"key,omitempty"`
	// Parent is the resolved parent content key of a delta job.
	Parent       string                   `json:"parent,omitempty"`
	Cached       bool                     `json:"cached,omitempty"`
	Created      time.Time                `json:"created"`
	Started      *time.Time               `json:"started,omitempty"`
	Finished     *time.Time               `json:"finished,omitempty"`
	Error        string                   `json:"error,omitempty"`
	Tables       int                      `json:"tables,omitempty"`
	SkippedRows  int                      `json:"skipped_rows,omitempty"`
	Degradations []export.JSONDegradation `json:"degradations,omitempty"`
	Links        map[string]string        `json:"links"`
}

func statusOf(j *Job) jobStatus {
	state, started, finished, res, err, cached, skipped := j.snapshot()
	st := jobStatus{
		ID:          j.ID,
		State:       state,
		Cached:      cached,
		Created:     j.Created,
		SkippedRows: skipped,
		Links: map[string]string{
			"self":      "/v1/jobs/" + j.ID,
			"events":    "/v1/jobs/" + j.ID + "/events",
			"result":    "/v1/jobs/" + j.ID + "/result",
			"telemetry": "/v1/jobs/" + j.ID + "/telemetry",
		},
	}
	if j.spec != nil {
		st.Key = j.spec.key
		st.Parent = j.spec.parentKey
	}
	if !started.IsZero() {
		st.Started = &started
	}
	if !finished.IsZero() {
		st.Finished = &finished
	}
	if err != nil {
		st.Error = err.Error()
	}
	if res != nil {
		st.Tables = len(res.Tables)
		st.Degradations = export.Degradations(res.Degradations)
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req jobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Resolve the server-wide validation-worker default before the spec
	// (and its cache key) is built, so the persisted job and its replay
	// carry the worker count the run actually used.
	if req.Options.Workers == 0 {
		req.Options.Workers = s.cfg.JobWorkers
	}
	spec, err := buildSpec(&req)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.m.Submit(spec)
	switch {
	case errors.Is(err, ErrBadParent):
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st := statusOf(job)
	writeJSON(w, submitCode(st), st)
}

// submitCode is the HTTP status answering a submission: 200 when the
// result came from the cache, 202 when the job was queued to run. It
// reads Cached rather than the state, because a pool worker can finish
// a tiny queued job before the status snapshot is taken.
func submitCode(st jobStatus) int {
	if st.Cached {
		return http.StatusOK
	}
	return http.StatusAccepted
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.m.Jobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, statusOf(j))
}

// handleTelemetry scrapes the job's per-stage telemetry — spans,
// wall-times, counters — as JSON. The recorder aggregates
// incrementally, so scraping is cheap and safe while the job runs.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.rec.WriteJSON(w); err != nil {
		s.logf("server: telemetry %s: %v", j.ID, err)
	}
}

// resultPayload is the GET /v1/jobs/{id}/result body.
type resultPayload struct {
	ID           string                   `json:"id"`
	State        State                    `json:"state"`
	Cached       bool                     `json:"cached,omitempty"`
	Error        string                   `json:"error,omitempty"`
	Schema       json.RawMessage          `json:"schema,omitempty"`
	DDL          string                   `json:"ddl,omitempty"`
	Degradations []export.JSONDegradation `json:"degradations,omitempty"`
	// Rows maps table names to their materialized instances (only with
	// ?include=rows; column order follows the schema's attribute lists).
	Rows map[string][][]string `json:"rows,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	state, _, _, res, jerr, cached, _ := j.snapshot()
	if !state.Terminal() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job not finished (state "+string(state)+")", http.StatusConflict)
		return
	}
	if res == nil {
		msg := "job produced no result"
		if jerr != nil {
			msg = jerr.Error()
		}
		writeJSON(w, http.StatusUnprocessableEntity, resultPayload{
			ID: j.ID, State: state, Error: msg,
		})
		return
	}
	if r.URL.Query().Get("format") == "sql" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, normalize.DDL(res.Tables))
		if len(res.Degradations) > 0 {
			io.WriteString(w, "-- degradations:\n")
			io.WriteString(w, normalize.FormatDegradations(res.Degradations))
		}
		return
	}
	schema, err := normalize.SchemaJSON(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	payload := resultPayload{
		ID:           j.ID,
		State:        state,
		Cached:       cached,
		Schema:       schema,
		DDL:          normalize.DDL(res.Tables),
		Degradations: export.Degradations(res.Degradations),
	}
	if jerr != nil {
		payload.Error = jerr.Error()
	}
	if r.URL.Query().Get("include") == "rows" {
		payload.Rows = make(map[string][][]string, len(res.Tables))
		for _, t := range res.Tables {
			payload.Rows[t.Name] = t.Data.Rows()
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleEvents streams the job's progress as Server-Sent Events: the
// replay history first, then live events until the terminal state
// event ends the stream. Periodic comment lines keep idle connections
// alive through proxies.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	sub := j.bus.subscribe()
	defer sub.cancel()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		events, done := sub.poll()
		for _, e := range events {
			if err := writeSSE(w, e); err != nil {
				s.logEventStreamEnd(j.ID, err)
				return
			}
		}
		if len(events) > 0 || done {
			flusher.Flush()
		}
		if done {
			return // terminal event delivered; stream complete
		}
		select {
		case <-sub.wake:
		case <-keepalive.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				s.logEventStreamEnd(j.ID, err)
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// logEventStreamEnd classifies a failed SSE write. A consumer closing
// its event stream mid-job — Ctrl-C on a curl, a browser tab closing —
// is normal operation, not a job failure, and must not read like one
// in the logs.
func (s *Server) logEventStreamEnd(id string, err error) {
	if isClientDisconnect(err) {
		s.logf("server: events %s: client disconnected", id)
		return
	}
	s.logf("server: events %s: write failed: %v", id, err)
}

// isClientDisconnect reports whether err is the far end going away
// rather than a server-side fault. The string fallbacks cover wrapped
// net.OpErrors whose cause does not survive errors.Is across platforms.
func isClientDisconnect(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, context.Canceled) ||
		errors.Is(err, http.ErrHandlerTimeout) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "broken pipe") ||
		strings.Contains(msg, "connection reset") ||
		strings.Contains(msg, "client disconnected")
}

// writeSSE renders one event in SSE wire format.
func writeSSE(w io.Writer, e event) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data)
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
