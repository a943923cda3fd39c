// http.go maps the Service onto HTTP: versioned campaign endpoints, a
// chunked NDJSON progress stream, a health probe, and Prometheus-style
// text metrics. Handlers stay thin — every decision (validation, quota,
// cache, dedup) lives in service.go; here errors just become status
// codes: *xsim.SpecError → 400, ErrQuotaExceeded → 429,
// ErrQueueClosed → 503.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"xsim"
)

// maxSpecBytes bounds a submitted spec document; canonical specs are a
// few hundred bytes, so 1 MiB is generous.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error  string   `json:"error"`
	Fields []string `json:"fields,omitempty"`
}

// writeError maps a service error to its status code and JSON body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case xsim.IsSpecError(err):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQuotaExceeded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrQueueClosed):
		code = http.StatusServiceUnavailable
	}
	body := apiError{Error: err.Error()}
	// Surface each violated field separately so clients can point at
	// their inputs; errors.Join flattens into Unwrap() []error.
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		for _, e := range joined.Unwrap() {
			var se *xsim.SpecError
			if errors.As(e, &se) && se.Field != "" {
				body.Fields = append(body.Fields, se.Field)
			}
		}
	} else {
		var se *xsim.SpecError
		if errors.As(err, &se) && se.Field != "" {
			body.Fields = append(body.Fields, se.Field)
		}
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit admits one campaign: the body is a wire-form
// CampaignSpec, the tenant comes from the X-Tenant header ("default"
// when absent). 202 Accepted for queued/joined work, 200 for instant
// cache hits.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, &xsim.SpecError{Msg: fmt.Sprintf("reading body: %v", err)})
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, &xsim.SpecError{Msg: "spec document exceeds 1 MiB"})
		return
	}
	spec, err := xsim.DecodeCampaignSpec(body)
	if err != nil {
		writeError(w, err)
		return
	}
	status, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	code := http.StatusAccepted
	if status.State == StateCompleted {
		code = http.StatusOK
	}
	writeJSON(w, code, status)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	status, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such campaign"})
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleResult serves a completed campaign's canonical outcome bytes
// verbatim — the same bytes the CLI's canonical output produces, so
// transports can be compared bit-for-bit.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such campaign"})
		return
	}
	data, ok, err := s.Result(id)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("campaign %s is %s, result not available", id, status.State)})
		return
	}
	// Trailing newline matches xsim-run -campaign output so the two
	// transports are byte-identical end to end.
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleEvents streams a campaign's progress as chunked NDJSON
// (application/x-ndjson): the replay buffer first, then live events,
// ending after the terminal "done" line. Clients that connect after
// completion still receive the full replay.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	lines, cancel, ok := s.Subscribe(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such campaign"})
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		select {
		case line, open := <-lines:
			if !open {
				return
			}
			// Every subscriber, and every follower of a leader, shares
			// line: append the newline to a copy.
			if _, err := w.Write(append(line[:len(line):len(line)], '\n')); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics emits the counters in Prometheus text exposition format.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	emit := func(name, help string, value int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, value)
	}
	emit("xsim_campaigns_submitted_total", "Campaign submissions admitted.", m.Submitted)
	emit("xsim_campaigns_completed_total", "Campaigns finished successfully.", m.Completed)
	emit("xsim_campaigns_failed_total", "Campaigns finished with an error.", m.Failed)
	emit("xsim_campaigns_cancelled_total", "Campaigns cancelled (drain or shutdown).", m.Cancelled)
	emit("xsim_cache_hits_total", "Submissions answered from the result store.", m.CacheHits)
	emit("xsim_cache_misses_total", "Submissions not answered from the result store.", m.CacheMiss)
	emit("xsim_dedup_joins_total", "Submissions joined to an in-flight identical campaign.", m.DedupJoins)
	emit("xsim_sim_runs_total", "Campaigns actually executed by the simulator.", m.SimRuns)
	emit("xsim_queue_depth", "Jobs currently queued.", m.QueueDepth)
	emit("xsim_store_keys", "Canonical results in the store.", m.StoredKeys)
}
