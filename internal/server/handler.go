// HTTP surface of the synthesis service: routing, the /synthesize
// request lifecycle (parse → cache probe → admit → await), health and
// metrics endpoints, and structured request logging.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/egs-synthesis/egs"
)

// Handler returns the service's HTTP routes wrapped in request
// logging and status accounting:
//
//	POST /synthesize              run (or cache-serve) a synthesis task
//	POST /sessions                create an incremental session
//	POST /sessions/{id}/delta     apply deltas, optionally re-solve
//	GET  /sessions/{id}           session status
//	DELETE /sessions/{id}         drop a session
//	GET  /healthz                 liveness: 200 serving, 503 draining
//	GET  /metrics                 Prometheus text exposition
//	GET  /debug/traces/{id}       fetch a stored request trace
//	GET  /debug/pprof/...         stdlib runtime profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /synthesize", s.handleSynthesize)
	mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /sessions/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("GET /sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	// Runtime profiling rides on the same mux so one listener serves
	// both the synthesis traces and the Go profiles that contextualize
	// them. Registered explicitly: importing net/http/pprof only for
	// its DefaultServeMux side effect would leak the endpoints onto
	// any process that links this package.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// handleTrace serves a stored request trace as Chrome trace-event
// JSON, directly loadable in about://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	b, ok := s.traces.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such trace (evicted or never stored)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with structured access logging and the
// requests-by-status counter.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.mRequests.With(strconv.Itoa(rec.code)).Inc()
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.code,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.closed
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// handleSynthesize is the request path of the tentpole: parse either
// request form, probe the result cache, admit onto the bounded queue,
// and await the worker under the request deadline.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	t, reqOpts, timeoutMS, err := parseRequest(r.Header.Get("Content-Type"), r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if pos, neg := t.NumExamples(); pos+neg == 0 {
		// A task with no labelled tuples is vacuously sat (the empty
		// query); answering it would only pollute the cache and mask
		// client bugs like an empty body.
		s.writeError(w, http.StatusBadRequest, "task declares no labelled output tuples; nothing to synthesize")
		return
	}
	opts, err := s.resolveOptions(reqOpts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	traceMode := ""
	if reqOpts != nil {
		traceMode = reqOpts.Trace
	}
	var tr *egs.Trace
	switch traceMode {
	case "":
	case "inline", "store":
		tr = egs.NewTrace()
		opts.Trace = tr
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown trace mode %q (want inline or store)", traceMode))
		return
	}
	if timeoutMS == 0 {
		if q := r.URL.Query().Get("timeout_ms"); q != "" {
			timeoutMS, err = strconv.ParseInt(q, 10, 64)
			if err != nil || timeoutMS < 0 {
				s.writeError(w, http.StatusBadRequest, "invalid timeout_ms query parameter")
				return
			}
		}
	}
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = min(time.Duration(timeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}

	key := cacheKey(t, opts)
	hash := key[:64] // the canonical task digest prefix of the key
	// Traced requests bypass the cache in both directions: a cached
	// answer has no trace to return, and a response carrying a trace
	// must not be replayed to untraced clients.
	if v, ok := s.cache.Get(key); ok && tr == nil {
		s.mCacheHits.Inc()
		s.writeCached(w, start, v.(*SynthesisResponse), t.Name(), hash)
		return
	}
	s.mCacheMisses.Inc()

	if tr != nil {
		// Traced requests also bypass singleflight: each trace must
		// describe its own engine run, so coalescing would be wrong.
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		res, dur, status, msg := s.runSynthesis(ctx, s.adoptSnapshot(t), opts)
		if msg != "" {
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			}
			if status == http.StatusInternalServerError {
				s.log.Error("synthesis failed", "task", t.Name(), "hash", hash, "err", msg)
			}
			s.writeError(w, status, msg)
			return
		}
		resp := buildResponse(t, res, hash)
		s.log.Info("synthesis complete",
			"task", t.Name(), "hash", hash, "status", resp.Status,
			"synth_ms", float64(dur.Microseconds())/1000,
			"rules", respRules(res))
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			s.log.Error("trace rendering failed", "task", t.Name(), "err", err)
		} else if traceMode == "inline" {
			resp.Trace = json.RawMessage(buf.Bytes())
		} else {
			resp.TraceID = s.traces.put(buf.Bytes())
		}
		resp.ElapsedMS = msSince(start)
		s.writeJSON(w, http.StatusOK, resp)
		return
	}

	// Singleflight: concurrent misses on one key share a single
	// synthesis. Every caller's interest lives exactly as long as its
	// request context — when the request ends (response written or
	// client hung up), the caller leaves, and the last one out cancels
	// the engine. A follower abandoning early therefore never poisons
	// the flight for the rest.
	f, leader, fctx := s.flights.join(key, timeout)
	//lint:ignore egslint/ctxflow the AfterFunc stop is deliberately dropped: leave must fire exactly when this request's context ends, and stopping it early would leak the caller's waiter refcount
	context.AfterFunc(r.Context(), f.leave)
	if !leader {
		s.mFlightShared.Inc()
		wait, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		select {
		case <-f.done:
		case <-wait.Done():
			s.writeError(w, http.StatusGatewayTimeout, "synthesis did not finish within the request deadline")
			return
		}
		s.log.Info("synthesis shared from flight", "task", t.Name(), "hash", hash)
		s.writeFlightOutcome(w, start, f.out, true)
		return
	}
	// A miss can land just before the previous leader's cache.Put and
	// its join just after that leader's finish, which makes this
	// request the leader of a fresh flight for an answer already
	// cached. Re-check, so the key is never synthesized twice.
	if v, ok := s.cache.Get(key); ok {
		resp := v.(*SynthesisResponse)
		s.flights.finish(key, f, flightOutcome{resp: resp})
		s.writeCached(w, start, resp, t.Name(), hash)
		return
	}
	s.mFlightLeaders.Inc()

	res, dur, status, msg := s.runSynthesis(fctx, s.adoptSnapshot(t), opts)
	if msg != "" {
		if status == http.StatusInternalServerError {
			s.log.Error("synthesis failed", "task", t.Name(), "hash", hash, "err", msg)
		}
		s.flights.finish(key, f, flightOutcome{status: status, msg: msg})
		s.writeFlightOutcome(w, start, f.out, false)
		return
	}

	resp := buildResponse(t, res, hash)
	// Cache the immutable part. Both verdicts are cacheable: sat
	// programs and unsat proofs are deterministic for (task, options).
	s.cache.Put(key, resp)
	s.mCacheSize.Set(int64(s.cache.Len()))
	s.log.Info("synthesis complete",
		"task", t.Name(), "hash", hash, "status", resp.Status,
		"synth_ms", float64(dur.Microseconds())/1000,
		"rules", respRules(res))
	s.flights.finish(key, f, flightOutcome{resp: resp})
	s.writeFlightOutcome(w, start, f.out, false)
}

// runSynthesis admits one engine run onto the queue and awaits it
// under ctx. On failure it returns the HTTP status and message to
// relay (msg == "" means success).
func (s *Server) runSynthesis(ctx context.Context, t *egs.Task, opts egs.Options) (res egs.Result, dur time.Duration, status int, msg string) {
	j := &job{ctx: ctx, task: t, opts: opts, done: make(chan jobResult, 1)}
	if err := s.enqueue(j); err != nil {
		if errors.Is(err, errQueueFull) {
			return res, 0, http.StatusTooManyRequests, err.Error()
		}
		return res, 0, http.StatusServiceUnavailable, err.Error()
	}
	var jr jobResult
	select {
	case jr = <-j.done:
	case <-ctx.Done():
		// The worker may still be running; it observes the same ctx
		// and will stop at its next cancellation check.
		return res, 0, http.StatusGatewayTimeout, "synthesis did not finish within the request deadline"
	}
	switch {
	case jr.err == nil:
		return jr.res, jr.dur, 0, ""
	case errors.Is(jr.err, egs.ErrBudgetExceeded):
		return res, 0, http.StatusUnprocessableEntity,
			"enumeration budget exceeded before the search completed (raise max_contexts or the server budget)"
	case errors.Is(jr.err, context.DeadlineExceeded), errors.Is(jr.err, context.Canceled):
		return res, 0, http.StatusGatewayTimeout, "synthesis did not finish within the request deadline"
	default:
		return res, 0, http.StatusInternalServerError, "synthesis failed: " + jr.err.Error()
	}
}

// writeFlightOutcome renders a singleflight result for one caller:
// each caller gets its own shallow copy (ElapsedMS and Coalesced are
// per-request), errors relay the leader's status with a fresh
// Retry-After where applicable.
func (s *Server) writeFlightOutcome(w http.ResponseWriter, start time.Time, out flightOutcome, coalesced bool) {
	if out.resp == nil {
		if out.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		s.writeError(w, out.status, out.msg)
		return
	}
	resp := *out.resp
	resp.Coalesced = coalesced
	resp.ElapsedMS = msSince(start)
	s.writeJSON(w, http.StatusOK, &resp)
}

// writeCached serves a response from the result cache.
func (s *Server) writeCached(w http.ResponseWriter, start time.Time, cached *SynthesisResponse, name, hash string) {
	resp := *cached // shallow copy; cached entry stays immutable
	resp.Cached = true
	resp.ElapsedMS = msSince(start)
	s.log.Info("synthesis served from cache", "task", name, "hash", hash)
	s.writeJSON(w, http.StatusOK, &resp)
}

// buildResponse renders an engine result for the wire.
func buildResponse(t *egs.Task, res egs.Result, hash string) *SynthesisResponse {
	resp := &SynthesisResponse{
		TaskHash:  hash,
		Uncovered: res.Uncovered,
		Stats: &Stats{
			ContextsExplored:    res.Stats.ContextsExplored,
			CandidatesEvaluated: res.Stats.CandidatesEvaluated,
			CandidatesCached:    res.Stats.CandidatesCached,
			RulesLearned:        res.Stats.RulesLearned,
		},
	}
	if res.Unsat {
		resp.Status = "unsat"
		resp.UnsatReason = res.UnsatReason
		return resp
	}
	resp.Status = "sat"
	resp.Datalog = res.Query.Datalog()
	if sql, err := res.Query.SQL(); err == nil {
		resp.SQL = sql
	}
	return resp
}

func respRules(res egs.Result) int {
	if res.Query == nil {
		return 0
	}
	return res.Query.NumRules()
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, &SynthesisResponse{Status: "error", Error: msg})
}
