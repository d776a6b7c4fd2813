package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bbrnash/internal/scenario"
)

// The HTTP surface. Submissions and results speak one envelope so every
// reader of a key — the submitter that triggered the run, the nine
// submitters deduped onto the same flight, a later poller, a restarted
// server replaying its journal — receives byte-identical bodies: the
// result field is the stored json.Marshal of the SpecResult, never
// re-derived per request.
//
//	POST /run          submit a scenario.Spec (JSON body); waits for the
//	                   result up to the request timeout. ?wait=0 returns
//	                   202 {key,status} immediately instead.
//	GET  /result?key=  fetch a completed result (200), or 202 while the
//	                   key is queued/running, 404 when unknown.
//	GET  /watch?key=   stream progress as Server-Sent Events: queued /
//	                   running heartbeats, then one done or error event.
//	GET  /healthz      process liveness (always 200 while serving).
//	GET  /readyz       admission readiness (503 once draining).
//	GET  /stats        machine-readable Stats.
//
// Overload answers 429 with Retry-After; draining answers 503.

// maxSpecBody bounds a submitted spec; a scenario file is a few KB, so a
// megabyte is generous and keeps a hostile client from ballooning memory.
const maxSpecBody = 1 << 20

// resultEnvelope is the one response shape for completed results.
type resultEnvelope struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// statusEnvelope reports a key's pending state.
type statusEnvelope struct {
	Key    string `json:"key"`
	Status string `json:"status"` // "queued" or "running"
}

// errorEnvelope reports an admission or execution failure.
type errorEnvelope struct {
	Key   string `json:"key,omitempty"`
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /result", s.handleResult)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// decodeSpec reads and validates the submitted scenario. The body must be
// one spec and nothing else, as a scenario file must: json.Unmarshal
// rejects bytes after the spec, which one json.Decoder.Decode call would
// leave unread.
func decodeSpec(r *http.Request) (scenario.Spec, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxSpecBody))
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("reading spec: %w", err)
	}
	var sp scenario.Spec
	if err := json.Unmarshal(body, &sp); err != nil {
		return scenario.Spec{}, fmt.Errorf("decoding spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return sp, nil
}

// flightState names a flight's current state for status envelopes.
func flightState(fl *flight) string {
	if fl.state.Load() == flightRunning {
		return "running"
	}
	return "queued"
}

// handleRun admits a spec and (by default) waits for its result.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sp, err := decodeSpec(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorEnvelope{Error: err.Error()})
		return
	}
	key, raw, fl, err := s.submit(sp)
	switch {
	case err == nil && raw != nil:
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, resultEnvelope{Key: key, Result: raw})
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Key: key, Error: err.Error()})
		return
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Key: key, Error: err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, statusEnvelope{Key: fl.key, Status: flightState(fl)})
		return
	}
	s.respondWhenDone(w, r, fl)
}

// respondWhenDone blocks one request on its flight, bounded by the request
// timeout and the client's own departure. A timeout does not cancel the
// flight — the work is already admitted and its result will be cached; the
// client polls /result.
func (s *Server) respondWhenDone(w http.ResponseWriter, r *http.Request, fl *flight) {
	t := time.NewTimer(s.cfg.RequestTimeout)
	defer t.Stop()
	select {
	case <-fl.done:
		s.writeOutcome(w, fl)
	case <-r.Context().Done():
		// The client left; nothing useful to write.
	case <-t.C:
		writeJSON(w, http.StatusGatewayTimeout, statusEnvelope{Key: fl.key, Status: flightState(fl)})
	}
}

// writeOutcome renders a finished flight.
func (s *Server) writeOutcome(w http.ResponseWriter, fl *flight) {
	if fl.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(fl.err, errDraining) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorEnvelope{Key: fl.key, Error: fl.err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resultEnvelope{Key: fl.key, Result: fl.result})
}

// handleResult answers by key: completed results come from the cache (the
// same bytes every time), open flights report 202, unknown keys 404.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, errorEnvelope{Error: "missing key parameter"})
		return
	}
	if raw, ok := s.cfg.Cache.GetRaw(key); ok {
		writeJSON(w, http.StatusOK, resultEnvelope{Key: key, Result: raw})
		return
	}
	if fl, ok := s.lookup(key); ok {
		writeJSON(w, http.StatusAccepted, statusEnvelope{Key: key, Status: flightState(fl)})
		return
	}
	writeJSON(w, http.StatusNotFound, errorEnvelope{Key: key, Error: "unknown key"})
}

// watchHeartbeat is how often /watch emits a progress event while its
// flight runs.
const watchHeartbeat = time.Second

// handleWatch streams one key's lifecycle as Server-Sent Events.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, errorEnvelope{Error: "missing key parameter"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorEnvelope{Error: "streaming unsupported"})
		return
	}
	// A completed key streams a single done event; an unknown one errors.
	if raw, ok := s.cfg.Cache.GetRaw(key); ok {
		startSSE(w)
		writeSSE(w, "done", resultEnvelope{Key: key, Result: raw})
		flusher.Flush()
		return
	}
	fl, ok := s.lookup(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorEnvelope{Key: key, Error: "unknown key"})
		return
	}
	startSSE(w)
	writeSSE(w, flightState(fl), statusEnvelope{Key: key, Status: flightState(fl)})
	flusher.Flush()
	tick := time.NewTicker(watchHeartbeat)
	defer tick.Stop()
	for {
		select {
		case <-fl.done:
			if fl.err != nil {
				writeSSE(w, "error", errorEnvelope{Key: key, Error: fl.err.Error()})
			} else {
				writeSSE(w, "done", resultEnvelope{Key: key, Result: fl.result})
			}
			flusher.Flush()
			return
		case <-tick.C:
			// Heartbeat: state transitions and liveness while running.
			cur := flightState(fl)
			writeSSE(w, cur, statusEnvelope{Key: key, Status: cur})
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func startSSE(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
