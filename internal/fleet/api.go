package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler exposes the coordinator over HTTP: the worker protocol
// (register, heartbeat, lease, results, deregister), the input blob
// endpoint, and the stats view. It is mountable into a larger mux —
// cmd/mdserver serves it alongside the jobs API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if r.ContentLength != 0 {
			r.Body = http.MaxBytesReader(w, r.Body, c.opts.controlLimit)
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, decodeStatus(err), fmt.Errorf("decoding register request: %w", err))
				return
			}
		}
		writeJSON(w, http.StatusCreated, c.register(req))
	})
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if !c.heartbeat(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, ErrUnknownWorker)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/workers/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		l, err := c.lease(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /v1/workers/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		// Result bodies are bounded too — generously, since they carry
		// base64 payloads — so one misbehaving worker cannot balloon
		// coordinator memory. The intentionally large input transfers run
		// over GET …/input/{name} and are governed by the worker's own
		// limit.
		r.Body = http.MaxBytesReader(w, r.Body, c.opts.resultLimit)
		var res UnitResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			writeError(w, decodeStatus(err), fmt.Errorf("decoding unit result: %w", err))
			return
		}
		switch err := c.complete(r.PathValue("id"), res); {
		case errors.Is(err, ErrStaleLease):
			writeError(w, http.StatusConflict, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
	})
	mux.HandleFunc("DELETE /v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !c.deregister(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, ErrUnknownWorker)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /v1/fleet/jobs/{id}/input/{name}", func(w http.ResponseWriter, r *http.Request) {
		blob, err := c.blobOf(r.PathValue("id"), r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(blob)
	})
	return mux
}

// decodeStatus maps a request-body decode error to its status: 413
// when the MaxBytesReader bound tripped, 400 for malformed JSON.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError encodes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
