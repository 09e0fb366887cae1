package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mdtask/internal/obs"
)

// DefaultMaxSpecBytes is the default bound on a POST /v1/jobs request
// body. Specs are small JSON documents — a well-formed one is hundreds
// of bytes — so a megabyte leaves generous headroom while keeping one
// hostile or buggy client from ballooning server memory with an
// arbitrarily large body.
const DefaultMaxSpecBytes = 1 << 20

// ServerOptions tunes the HTTP API. The zero value gets defaults.
type ServerOptions struct {
	// MaxSpecBytes bounds the POST /v1/jobs request body; oversized
	// submissions are rejected with 413 before the decoder buffers them
	// (< 1: DefaultMaxSpecBytes).
	MaxSpecBytes int64
}

// decodeSpec decodes a POST /v1/jobs body: one JSON spec, unknown
// fields rejected.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// NewServerWith wraps a scheduler in the mdserver HTTP JSON API
// (cmd/mdserver wires the -max-spec-bytes flag through o; zero options
// take the defaults):
//
//	POST   /v1/jobs          submit a job (body: Spec JSON) → Status
//	GET    /v1/jobs          list jobs → []Status
//	GET    /v1/jobs/{id}     job status + progress + metrics → Status
//	GET    /v1/jobs/{id}/result  result of a done job → Result
//	DELETE /v1/jobs/{id}     cancel a queued or running job → Status
//	GET    /v1/jobs/{id}/trace   job trace → Chrome trace_event JSON
//	GET    /v1/metrics       service-wide metrics → ServiceMetrics
//	GET    /healthz          liveness probe
func NewServerWith(s *Scheduler, o ServerOptions) http.Handler {
	if o.MaxSpecBytes < 1 {
		o.MaxSpecBytes = DefaultMaxSpecBytes
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Bound the body before decoding: json.Decoder otherwise buffers
		// whatever the client sends, so one oversized request could
		// balloon server memory. MaxBytesReader also closes the
		// connection once the limit trips, ending the upload.
		r.Body = http.MaxBytesReader(w, r.Body, o.MaxSpecBytes)
		spec, err := decodeSpec(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("job spec exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
			return
		}
		job, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			// Load shed, not an outage: tell well-behaved clients when to
			// come back instead of letting them hammer a full queue.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrJournal):
			// The server's fault, not the client's: the spec was fine but
			// durability could not be guaranteed, so nothing was admitted.
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusAccepted, job.Status())
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]Status, len(jobs))
		for i, j := range jobs {
			out[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
			return
		}
		res, state, errMsg := job.Result()
		switch state {
		case StateDone:
			if res == nil {
				// A done job recovered from the journal: result bodies are
				// not journaled, only their digest, so the status survived
				// the restart but the matrix did not. Resubmitting the same
				// spec recomputes it byte-identically.
				writeError(w, http.StatusGone, fmt.Errorf("result evicted on restart; resubmit the job to recompute it"))
				return
			}
			writeResult(w, res)
		case StateFailed:
			writeError(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", errMsg))
		case StateCancelled:
			writeError(w, http.StatusGone, fmt.Errorf("job was cancelled"))
		default:
			writeError(w, http.StatusConflict, fmt.Errorf("job is %s; no result yet", state))
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Cancel(r.PathValue("id"))
		if job == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
			return
		}
		st := job.Status()
		if !ok && st.State != StateCancelled {
			writeError(w, http.StatusConflict, fmt.Errorf("job already %s", st.State))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
			return
		}
		trace := job.TraceID()
		if trace.IsZero() {
			writeError(w, http.StatusNotFound, fmt.Errorf("job %s has no trace (tracing disabled)", job.ID()))
			return
		}
		spans, dropped := s.Obs().Tracer.Spans(trace)
		if len(spans) == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("trace %s evicted", trace))
			return
		}
		if dropped > 0 {
			w.Header().Set("X-Trace-Dropped-Spans", fmt.Sprint(dropped))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(obs.ChromeTrace(spans))
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeResult answers 200 with a result's encoding and a trailing
// newline: the body json.Encoder would write, encoded without
// reflection (appendResult) and sent with its Content-Length. The job
// already encoded this result once, at finish, so encoding cannot fail
// here; if it does, the answer is a 500.
func writeResult(w http.ResponseWriter, r *Result) {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	body, err := appendResult((*buf)[:0], r)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	*buf = body
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeError encodes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
