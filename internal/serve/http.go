package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/overload"
	"repro/internal/registry"
)

// PriorityHeader is the transport-level priority class header. A request
// field overrides it; both default to interactive.
const PriorityHeader = "X-Chaos-Priority"

// HTTP-path instruments (per endpoint), resolved once.
var (
	estimateReqs  = obs.Default().Counter("chaos_serve_requests_total", obs.Labels{"endpoint": "estimate"})
	batchReqs     = obs.Default().Counter("chaos_serve_requests_total", obs.Labels{"endpoint": "estimate_batch"})
	modelsReqs    = obs.Default().Counter("chaos_serve_requests_total", obs.Labels{"endpoint": "models"})
	estimateSecs  = obs.Default().Histogram("chaos_serve_request_seconds", obs.Labels{"endpoint": "estimate"}, obs.ExpBuckets(1e-6, 4, 12))
	batchSecs     = obs.Default().Histogram("chaos_serve_request_seconds", obs.Labels{"endpoint": "estimate_batch"}, obs.ExpBuckets(1e-6, 4, 12))
	httpErrsTotal = obs.Default().Counter("chaos_serve_http_errors_total", nil)
)

// SampleJSON is one machine's counter vector in the API wire format.
type SampleJSON struct {
	MachineID string    `json:"machine_id"`
	Platform  string    `json:"platform"`
	Counters  []float64 `json:"counters"`
	// MeteredWatts, when present on every sample of a snapshot, feeds the
	// serve-side drift monitor.
	MeteredWatts *float64 `json:"metered_watts,omitempty"`
}

// EstimateRequest is one cluster snapshot: one sample per machine.
type EstimateRequest struct {
	Samples []SampleJSON `json:"samples"`
	// DeadlineMS overrides the server's default per-request deadline.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Priority is the request's class: "interactive" (default), "batch",
	// or "background". Overrides the X-Chaos-Priority header. Lower
	// tiers are shed first under overload.
	Priority string `json:"priority,omitempty"`
}

// EstimateResponse is the result of one snapshot.
type EstimateResponse struct {
	Status       int                `json:"status"`
	ModelVersion string             `json:"model_version,omitempty"`
	ClusterWatts float64            `json:"cluster_watts"`
	PerMachine   map[string]float64 `json:"per_machine,omitempty"`
	Error        string             `json:"error,omitempty"`
	// TraceID is set when the request was traced; the full span breakdown
	// is retrievable at /debug/traces/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// Owner and OwnerAddr are the redirect hint on a 421 response: the
	// peer that owns the rejected machine in a distributed deployment.
	Owner     string `json:"owner,omitempty"`
	OwnerAddr string `json:"owner_addr,omitempty"`

	// retryAfter carries the adaptive limiter's backoff hint from the
	// engine to setBackpressureHeaders; never serialized.
	retryAfter time.Duration
}

// BatchRequest carries many snapshots in one HTTP round trip.
type BatchRequest struct {
	Requests   []EstimateRequest `json:"requests"`
	DeadlineMS float64           `json:"deadline_ms,omitempty"`
}

// BatchResponse mirrors BatchRequest: one result per snapshot, each with
// its own status (the HTTP status is 200 whenever the envelope parsed).
type BatchResponse struct {
	Results []EstimateResponse `json:"results"`
}

// ModelsResponse lists the registry.
type ModelsResponse struct {
	Active string          `json:"active"`
	Models []registry.Info `json:"models"`
}

// ActivateRequest activates a version, rolls back, or admits a new model.
type ActivateRequest struct {
	Version  string `json:"version,omitempty"`
	Rollback bool   `json:"rollback,omitempty"`
}

// AddModelRequest admits a new model version over HTTP.
type AddModelRequest struct {
	Version     string          `json:"version"`
	Description string          `json:"description,omitempty"`
	Model       json.RawMessage `json:"model"`
	Activate    bool            `json:"activate,omitempty"`
}

// Lifecycle is the orchestrator surface the HTTP layer exposes. The
// lifecycle package implements it; keeping it an interface here means
// serve never imports lifecycle (which imports registry and online, the
// same layers serve builds on).
type Lifecycle interface {
	// StatusJSON returns the /v1/lifecycle/status payload.
	StatusJSON() any
	// TriggerRetrain requests an explicit retrain cycle.
	TriggerRetrain(reason string) error
	// Ingest receives every fully-served snapshot that carried complete
	// meter readings: the samples, the per-machine metered watts, the
	// cluster estimate answered, and the model version that served it (so
	// a post-swap consumer can tell which model earned the residual). It
	// is called from the request goroutine after the response is
	// complete, so it must be cheap.
	Ingest(samples []online.Sample, metered []float64, estimated float64, version string)
}

// AttachLifecycle binds a lifecycle orchestrator to the engine: it
// receives the labeled snapshots and answers the lifecycle endpoints,
// which answer 404 before (or without) attachment.
func (s *Server) AttachLifecycle(lc Lifecycle) { s.lc.Store(&lc) }

// Lifecycle returns the attached orchestrator, nil when lifecycle is
// disabled.
func (s *Server) Lifecycle() Lifecycle {
	if lc := s.lc.Load(); lc != nil {
		return *lc
	}
	return nil
}

// NewMux returns the service mux: the /v1 estimation and model-management
// API plus the obs endpoints (/metrics, /healthz, pprof) so one listener
// serves both traffic and scrapes. When tracing is configured the trace
// store mounts at /debug/traces.
func NewMux(s *Server) *http.ServeMux {
	mux := obs.NewMux(obs.Default())
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/estimate/batch", s.handleBatch)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/activate", s.handleActivate)
	mux.HandleFunc("/v1/lifecycle/status", s.handleLifecycleStatus)
	mux.HandleFunc("/v1/lifecycle/retrain", s.handleLifecycleRetrain)
	mux.HandleFunc("/v1/overload/status", s.handleOverloadStatus)
	mux.HandleFunc("/v1/version", s.handleVersion)
	if s.cfg.Traces != nil {
		h := s.cfg.Traces.Handler()
		mux.Handle("/debug/traces", h)
		mux.Handle("/debug/traces/", h)
	}
	return mux
}

// handleVersion reports what binary is serving: build metadata plus the
// active model version — the first thing to check when fleet behavior
// diverges.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	bi := obs.ReadBuild()
	writeJSON(w, http.StatusOK, map[string]any{
		"go_version":     bi.GoVersion,
		"module_version": bi.ModuleVersion,
		"vcs_revision":   bi.VCSRevision,
		"vcs_time":       bi.VCSTime,
		"active_model":   s.reg.ActiveVersion(),
		"models":         s.reg.Len(),
	})
}

// startTrace decides whether this request is traced: always when the
// caller supplied a valid traceparent (they intend to look the trace up),
// else 1-in-TraceSample. Returns nil for untraced requests — every
// ActiveTrace method is nil-safe, so the hot path pays only nil checks.
func (s *Server) startTrace(r *http.Request, endpoint string) *obs.ActiveTrace {
	ts := s.cfg.Traces
	if ts == nil {
		return nil
	}
	if tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return ts.Start("serve."+endpoint, tid, true)
	}
	// Brownout rung 2 stops sampling new traces; caller-identified
	// requests (explicit traceparent above) still trace, since someone is
	// actively debugging with them.
	if s.ov != nil && s.ov.Level() >= overload.LevelShedAux {
		return nil
	}
	if !ts.Sample(s.cfg.TraceSample) {
		return nil
	}
	return ts.Start("serve."+endpoint, "", false)
}

// traceStatus maps a response status to the trace's terminal state —
// what tail retention keys on.
func traceStatus(httpStatus int) string {
	switch httpStatus {
	case http.StatusOK:
		return "ok"
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusGatewayTimeout:
		return "late"
	default:
		return "error"
	}
}

// estimateOnce runs one snapshot through the engine and maps the outcome
// to a wire response + status. at may be nil (untraced). prio is the
// transport-level default priority; an explicit request field wins.
func (s *Server) estimateOnce(req EstimateRequest, deadline time.Duration, at *obs.ActiveTrace, prio overload.Priority) EstimateResponse {
	if len(req.Samples) == 0 {
		return EstimateResponse{Status: http.StatusBadRequest, Error: "no samples"}
	}
	if s.cfg.Owner != nil {
		for _, sj := range req.Samples {
			peer, addr, local := s.cfg.Owner(sj.MachineID)
			if !local {
				// 421 Misdirected Request: this node does not own the
				// machine's predictors. The hint tells the client (or the
				// scatter-gather front door) where to go.
				return EstimateResponse{
					Status:    http.StatusMisdirectedRequest,
					Error:     fmt.Sprintf("machine %s is owned by peer %s", sj.MachineID, peer),
					Owner:     peer,
					OwnerAddr: addr,
				}
			}
		}
	}
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS * float64(time.Millisecond))
	}
	samples := make([]online.Sample, len(req.Samples))
	var metered []float64
	haveMeter := true
	for i, sj := range req.Samples {
		samples[i] = online.Sample{MachineID: sj.MachineID, Platform: sj.Platform, Counters: sj.Counters}
		if sj.MeteredWatts == nil {
			haveMeter = false
		}
	}
	if haveMeter {
		metered = make([]float64, len(req.Samples))
		for i, sj := range req.Samples {
			metered[i] = *sj.MeteredWatts
		}
	}
	if req.Priority != "" {
		prio = overload.ParsePriority(req.Priority)
	}
	res, err := s.EstimatePriority(samples, deadline, metered, at, prio)
	switch {
	case errors.Is(err, ErrOverloaded):
		resp := EstimateResponse{Status: http.StatusTooManyRequests, Error: err.Error()}
		if res != nil {
			resp.retryAfter = res.RetryAfter
		}
		return resp
	case errors.Is(err, ErrDeadline):
		return EstimateResponse{Status: http.StatusGatewayTimeout, Error: err.Error()}
	case errors.Is(err, ErrNoModel):
		return EstimateResponse{Status: http.StatusServiceUnavailable, Error: err.Error()}
	case err != nil:
		return EstimateResponse{Status: http.StatusBadRequest, Error: err.Error()}
	}
	return EstimateResponse{
		Status:       http.StatusOK,
		ModelVersion: res.Version(),
		ClusterWatts: res.ClusterWatts,
		PerMachine:   res.PerMachine,
	}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	estimateReqs.Inc()
	at := s.startTrace(r, "estimate")
	var status int
	defer func() {
		d := time.Since(start)
		// Exemplars tie the latency histogram back to a retrievable trace;
		// untraced requests observe plainly.
		estimateSecs.ObserveExemplar(d.Seconds(), at.TraceID())
		if s.cfg.Observer != nil {
			s.cfg.Observer.ObserveRequest("estimate", d, status)
		}
	}()
	var req EstimateRequest
	if !decodeJSON(w, r, &req) {
		status = http.StatusBadRequest
		at.End("error")
		return
	}
	resp := s.estimateOnce(req, 0, at, overload.ParsePriority(r.Header.Get(PriorityHeader)))
	status = resp.Status
	s.setBackpressureHeaders(w, resp)
	if at != nil {
		resp.TraceID = at.TraceID()
		w.Header().Set("traceparent", obs.FormatTraceparent(at.TraceID(), at.SpanID()))
	}
	respondStart := time.Now()
	writeJSON(w, resp.Status, resp)
	at.Span("respond", respondStart, time.Since(respondStart))
	at.End(traceStatus(resp.Status))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	batchReqs.Inc()
	at := s.startTrace(r, "estimate_batch")
	var status int
	defer func() {
		d := time.Since(start)
		batchSecs.ObserveExemplar(d.Seconds(), at.TraceID())
		if s.cfg.Observer != nil {
			s.cfg.Observer.ObserveRequest("estimate_batch", d, status)
		}
	}()
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		status = http.StatusBadRequest
		at.End("error")
		return
	}
	if len(req.Requests) == 0 {
		status = http.StatusBadRequest
		writeError(w, http.StatusBadRequest, "empty batch")
		at.End("error")
		return
	}
	deadline := time.Duration(req.DeadlineMS * float64(time.Millisecond))
	headerPrio := overload.ParsePriority(r.Header.Get(PriorityHeader))
	resp := BatchResponse{Results: make([]EstimateResponse, len(req.Requests))}
	// Scatter every snapshot's samples before gathering any: the shards
	// see the whole batch at once, so their windows fill and the
	// per-sample overhead amortizes across the entire HTTP payload. All
	// snapshots of a traced batch share the request's trace.
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Results[i] = s.estimateOnce(req.Requests[i], deadline, at, headerPrio)
		}(i)
	}
	wg.Wait()
	// The HTTP envelope is 200 whenever it parsed, but the SLO observer
	// and the trace see the worst sub-result: an all-shed batch must burn
	// the latency error budget exactly as the same overload would on
	// /v1/estimate.
	status = http.StatusOK
	for _, res := range resp.Results {
		if res.Status > status {
			status = res.Status
		}
		switch res.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Any retryable sub-result means the pool is backed up; give
			// the whole batch the same backoff hint a single one would get.
			s.setBackpressureHeaders(w, res)
		}
	}
	if at != nil {
		w.Header().Set("traceparent", obs.FormatTraceparent(at.TraceID(), at.SpanID()))
	}
	respondStart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	at.Span("respond", respondStart, time.Since(respondStart))
	at.End(traceStatus(status))
}

// setBackpressureHeaders annotates retryable and misdirected responses:
// every retryable status (429 shed, 503 no model, 504 deadline) carries
// Retry-After — preferring the adaptive limiter's own hint, falling back
// to the live queue backlog (integer seconds, floor 1 — the header's own
// granularity) — and a 421 carries the owning peer so clients can
// redirect without re-parsing the body.
func (s *Server) setBackpressureHeaders(w http.ResponseWriter, resp EstimateResponse) {
	switch resp.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		hint := resp.retryAfter
		if hint <= 0 {
			hint = s.RetryAfterHint()
		}
		secs := int(hint.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case http.StatusMisdirectedRequest:
		w.Header().Set("X-Chaos-Owner", resp.Owner)
		w.Header().Set("X-Chaos-Owner-Addr", resp.OwnerAddr)
	}
}

// handleOverloadStatus reports the adaptive admission state: brownout
// level, per-shard limiter snapshots, and cumulative per-tier admission
// accounting. 404 when overload control is disabled.
func (s *Server) handleOverloadStatus(w http.ResponseWriter, r *http.Request) {
	if s.ov == nil {
		writeError(w, http.StatusNotFound, "overload control disabled")
		return
	}
	writeJSON(w, http.StatusOK, s.ov.Snapshot())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	modelsReqs.Inc()
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, ModelsResponse{
			Active: s.reg.ActiveVersion(),
			Models: s.reg.List(),
		})
	case http.MethodPost:
		var req AddModelRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.Version == "" || len(req.Model) == 0 {
			writeError(w, http.StatusBadRequest, "version and model are required")
			return
		}
		if err := s.reg.AddJSON(req.Version, req.Model, registry.Meta{Description: req.Description, Source: "api"}); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		e, _ := s.reg.Get(req.Version)
		if err := s.ValidateCompatible(e); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Activate {
			if err := s.activate(req.Version); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		writeJSON(w, http.StatusOK, ModelsResponse{Active: s.reg.ActiveVersion(), Models: s.reg.List()})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	modelsReqs.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ActivateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case req.Rollback:
		version, err := s.reg.Rollback()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.emitActivation(version, true)
		writeJSON(w, http.StatusOK, map[string]string{"active": version})
	case req.Version != "":
		if err := s.activate(req.Version); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"active": s.reg.ActiveVersion()})
	default:
		writeError(w, http.StatusBadRequest, "version or rollback required")
	}
}

func (s *Server) handleLifecycleStatus(w http.ResponseWriter, r *http.Request) {
	lc := s.Lifecycle()
	if lc == nil {
		writeError(w, http.StatusNotFound, "lifecycle disabled")
		return
	}
	writeJSON(w, http.StatusOK, lc.StatusJSON())
}

func (s *Server) handleLifecycleRetrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	lc := s.Lifecycle()
	if lc == nil {
		writeError(w, http.StatusNotFound, "lifecycle disabled")
		return
	}
	var req struct {
		Reason string `json:"reason"`
	}
	// The body is optional: a bare POST means a plain manual trigger.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "parsing body: "+err.Error())
			return
		}
	}
	if req.Reason == "" {
		req.Reason = "manual"
	}
	if err := lc.TriggerRetrain(req.Reason); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	// 202: the retrain runs asynchronously; poll /v1/lifecycle/status.
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "accepted", "reason": req.Reason})
}

// activate validates stream compatibility, swaps, and emits the event.
func (s *Server) activate(version string) error {
	e, ok := s.reg.Get(version)
	if !ok {
		return fmt.Errorf("serve: unknown version %q", version)
	}
	if err := s.ValidateCompatible(e); err != nil {
		return err
	}
	if err := s.reg.Activate(version); err != nil {
		return err
	}
	s.emitActivation(version, false)
	return nil
}

func (s *Server) emitActivation(version string, rollback bool) {
	if s.cfg.Events != nil {
		s.cfg.Events.Emit("model_activated", map[string]any{ //nolint:errcheck // telemetry only
			"version": version, "rollback": rollback,
		})
	}
}

// decodeJSON parses the request body, answering 400 on garbage. Returns
// false when the response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "parsing body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func writeError(w http.ResponseWriter, status int, msg string) {
	httpErrsTotal.Inc()
	writeJSON(w, status, map[string]any{"status": status, "error": msg})
}

// HTTPServer is a running API listener. Closing it stops the listener;
// the engine keeps running until it is closed separately.
type HTTPServer = obs.Server

// Serve binds addr (":8080", "127.0.0.1:0") and serves the engine's API
// in the background.
func Serve(addr string, s *Server) (*HTTPServer, error) {
	return obs.ServeHandler(addr, NewMux(s))
}

// ServeHandler binds addr and serves an arbitrary handler — the
// distributed mode mounts its cluster front door and replication
// endpoints on top of NewMux before listening.
func ServeHandler(addr string, h http.Handler) (*HTTPServer, error) {
	return obs.ServeHandler(addr, h)
}
