package admission

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rtsync/internal/obs"
)

// Service exposes a Workspace over JSON HTTP. Routes:
//
//	POST /v1/delta    body: Delta            → Verdict
//	POST /v1/analyze  body: {"algo": "..."}  → Verdict (committed system)
//	GET  /v1/system                          → committed system (versioned
//	                                           envelope, model.ReadJSON-compatible)
//	GET  /healthz                            → 200 "ok"
//	GET  /metrics                            → Prometheus text exposition of
//	                                           the workspace's AnalysisStats
//
// Errors return JSON {"error": "..."} with status 400 (bad request or
// unanalyzable delta), 405, or 413 (body over maxRequestBytes).
type Service struct {
	ws  *Workspace
	mux *http.ServeMux
}

// maxRequestBytes caps a POST body. A delta carrying a few thousand tasks
// fits with room to spare; a larger body is refused with 413 before it is
// decoded.
const maxRequestBytes = 1 << 20

// NewService wires a Workspace into a Service.
func NewService(ws *Workspace) *Service {
	s := &Service{ws: ws, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/delta", s.handleDelta)
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/system", s.handleSystem)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Service) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var d Delta
	if !decodeBody(w, r, &d, "delta", false) {
		return
	}
	v, err := s.ws.ApplyDelta(d)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, v)
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Algo string `json:"algo,omitempty"`
	}
	if !decodeBody(w, r, &req, "request", true) {
		return
	}
	v, err := s.ws.Analyze(req.Algo)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, v)
}

// decodeBody decodes r's JSON body into v, refusing unknown fields and
// bodies over maxRequestBytes (413). On failure it writes the error
// response and returns false. An empty body decodes to v unchanged when
// emptyOK; a truncated one is always a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil || emptyOK && errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	jsonError(w, status, fmt.Sprintf("decode %s: %v", what, err))
	return false
}

func (s *Service) handleSystem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.ws.System().WriteJSON(w); err != nil {
		// Headers are gone; nothing sound to do but log via the server.
		panic(http.ErrAbortHandler)
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	if err := obs.WritePromText(w, nil, nil, s.ws.cfg.Stats); err != nil {
		panic(http.ErrAbortHandler)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
