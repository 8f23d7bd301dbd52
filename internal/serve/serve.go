// Package serve turns the batch overlap pipeline into a resident,
// multi-tenant service: an HTTP/JSON gateway in front of a pool of
// long-lived SPMD worlds (goroutine ranks of the message-passing runtime
// over the in-process loopback fabric). Clients stream read sets in, jobs are admitted
// against a memory budget, batched by compatible spec onto warm worlds,
// and overlap hits stream back per job in the exact format of the batch
// tool — the one-shot setup (world construction, workspace warm-up) is
// paid once at startup instead of per invocation.
package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"gnbody/internal/trace"
)

// serveVars is the process-wide expvar map for the service ("dibserve" on
// /debug/vars). Shared by every Server in the process: expvar names are
// global, and Map.Add is safe for concurrent use.
var (
	varsOnce sync.Once
	vars     *expvar.Map
)

func serveVars() *expvar.Map {
	varsOnce.Do(func() { vars = expvar.NewMap("dibserve") })
	return vars
}

// DefaultMaxBody caps one request body (64 MiB).
const DefaultMaxBody = int64(64) << 20

// Config parameterises the server: the pool underneath plus HTTP-side
// limits.
type Config struct {
	PoolConfig
	// MaxBody caps one request body in bytes (http.MaxBytesReader);
	// <= 0 selects DefaultMaxBody.
	MaxBody int64
	// Limits bounds one decoded job (reads, bases).
	Limits Limits
}

// Server is the HTTP gateway over a resident-world pool.
type Server struct {
	cfg  Config
	pool *Pool
	mux  *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64
}

// New builds the pool (constructing its resident worlds) and the routing
// table. The caller owns serving: mount Handler() on any http.Server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	pool, err := NewPool(cfg.PoolConfig)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, pool: pool, jobs: make(map[string]*Job)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/hits", s.handleHits)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	// pprof is mounted explicitly so nothing depends on DefaultServeMux.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the server's routing table.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the scheduler (stats, programmatic submission in tests and
// experiments).
func (s *Server) Pool() *Pool { return s.pool }

// Drain stops admission, fails queued jobs, waits for in-flight jobs and
// shuts the resident worlds down. Idempotent; see Pool.Drain.
func (s *Server) Drain() { s.pool.Drain() }

// Job looks a submitted job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every submitted job in submission order (shutdown metrics
// flush, tests).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for i := int64(1); i <= s.nextID; i++ {
		if j, ok := s.jobs[fmt.Sprintf("job-%d", i)]; ok {
			out = append(out, j)
		}
	}
	return out
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit admits one job: read the (capped) body, decode it by
// content type, validate the chaos hook, and run admission control.
// Admission failures map onto 413 (never fits), 503+Retry-After (budget
// held), 429 (queue full) and 503 (draining).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			serveVars().Add("rejected", 1)
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: body exceeds %d-byte cap", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rq, err := DecodeJobRequest(r.Header.Get("Content-Type"), r.URL.Query(), body, s.cfg.Limits)
	if err != nil {
		serveVars().Add("rejected", 1)
		switch {
		case errors.Is(err, ErrUnsupportedMedia), errors.Is(err, ErrCompressed):
			httpError(w, http.StatusUnsupportedMediaType, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	reads, err := rq.ReadSet()
	if err != nil {
		serveVars().Add("rejected", 1)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()
	j := newJob(id, rq.JobSpec, reads, time.Now())
	if rq.ChaosKillRank != nil && *rq.ChaosKillRank >= 0 {
		if !s.pool.Chaos() {
			httpError(w, http.StatusForbidden,
				errors.New("serve: chaos_kill_rank needs a server started with chaos enabled"))
			return
		}
		if *rq.ChaosKillRank >= s.pool.Ranks() {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("serve: chaos_kill_rank %d out of range for %d ranks", *rq.ChaosKillRank, s.pool.Ranks()))
			return
		}
		j.chaosKill = *rq.ChaosKillRank
	}
	if err := s.pool.Submit(j); err != nil {
		serveVars().Add("rejected", 1)
		switch {
		case errors.Is(err, ErrTooLarge):
			httpError(w, http.StatusRequestEntityTooLarge, err)
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	serveVars().Add("submitted", 1)
	serveVars().Add("bytes_admitted", j.estBytes)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleHits streams a done job's alignments as TSV — one
// "nameA\tnameB\tscore" line per saved alignment, byte-identical to the
// batch tool's output for the same reads and spec. ?wait=1 blocks until
// the job reaches a terminal state (bounded by the request context).
func (s *Server) handleHits(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			httpError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
	}
	st := j.Status()
	switch st.State {
	case StateDone:
		hits, _ := j.Hits()
		w.Header().Set("Content-Type", "text/tab-separated-values")
		w.Header().Set("X-Job-Hits", strconv.Itoa(len(hits)))
		for _, h := range hits {
			fmt.Fprintf(w, "%s\t%s\t%d\n", j.ReadName(h.A), j.ReadName(h.B), h.Score)
		}
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleMetrics returns the job-scoped per-rank metrics rows (the
// snapshot/diff around the job's collective region) as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	rows := j.Metrics()
	if rows == nil {
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteJobMetricsJSON(w, rows); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Stats())
}
