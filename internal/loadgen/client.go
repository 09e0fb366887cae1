package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
)

// Harness is the shared client machinery every scenario runs on: a
// keep-alive HTTP client sized for the closed-loop pool and the
// counters the invariant checks audit afterwards.
type Harness struct {
	cfg  Config
	base string
	hc   *http.Client

	mu                sync.Mutex
	accepted          []string
	shed              int
	retryAfterMissing int
	oversizedSent     int
	oversized413      int
	cacheHits         int
	cancelled         int
	lost              []string    // accepted jobs that never reached an allowed terminal state
	extra             []Invariant // scenario-specific checks
}

func newHarness(cfg Config) *Harness {
	tr := &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}
	return &Harness{
		cfg:  cfg,
		base: strings.TrimRight(cfg.Server, "/"),
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
}

// reset clears per-scenario state.
func (h *Harness) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.accepted = nil
	h.shed, h.retryAfterMissing = 0, 0
	h.oversizedSent, h.oversized413 = 0, 0
	h.cacheHits, h.cancelled = 0, 0
	h.lost = nil
	h.extra = nil
}

// check appends a scenario-specific invariant verdict.
func (h *Harness) check(name string, ok bool, format string, args ...interface{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.extra = append(h.extra, Invariant{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// waitHealthy polls /healthz until the server answers.
func (h *Harness) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, _, err := h.get("/healthz")
		if code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadgen: server %s unreachable: %w", h.base, err)
			}
			return fmt.Errorf("loadgen: server %s unhealthy", h.base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// get fetches one path of the server and returns its status code and
// body; a non-200 answer is not an error.
func (h *Harness) get(path string) (int, []byte, error) {
	resp, err := h.hc.Get(h.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON decodes the 200 answer of one path into v.
func (h *Harness) getJSON(path string, v any) error {
	code, body, err := h.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s answered %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// fleetView fetches the coordinator's /v1/fleet view.
func (h *Harness) fleetView() (fleet.StatsView, error) {
	var v fleet.StatsView
	err := h.getJSON("/v1/fleet", &v)
	return v, err
}

// waitFleet polls /v1/fleet until cond holds, failing once timeout
// passes: the bound reports a broken registration, it paces nothing.
func (h *Harness) waitFleet(what string, timeout time.Duration, cond func(fleet.StatsView) bool) (fleet.StatsView, error) {
	deadline := time.Now().Add(timeout)
	for {
		v, err := h.fleetView()
		if err == nil && cond(v) {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("loadgen: %s: not reached within %s (last view %+v, err %v)", what, timeout, v, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// parallel fans total items over n closed-loop clients; each worker
// processes its next item only after the previous one's requests
// completed. The first harness-level error wins; nil items are fine.
func (h *Harness) parallel(n, total int, fn func(i int) error) error {
	if n > total {
		n = total
	}
	var wg sync.WaitGroup
	next := make(chan int)
	errc := make(chan error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		select {
		case err := <-errc:
			close(next)
			wg.Wait()
			return err
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// submit posts one job spec, classifying the outcome into the harness counters. The returned
// Status is zero-valued unless the submission was accepted.
func (h *Harness) submit(spec jobs.Spec) (jobs.Status, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobs.Status{}, 0, err
	}
	resp, err := h.hc.Post(h.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobs.Status{}, 0, fmt.Errorf("loadgen: submit: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return jobs.Status{}, resp.StatusCode, fmt.Errorf("loadgen: decoding submit response: %w", err)
		}
		h.mu.Lock()
		h.accepted = append(h.accepted, st.ID)
		if st.CacheHit {
			h.cacheHits++
		}
		h.mu.Unlock()
		return st, resp.StatusCode, nil
	case http.StatusTooManyRequests:
		h.mu.Lock()
		h.shed++
		if resp.Header.Get("Retry-After") == "" {
			h.retryAfterMissing++
		}
		h.mu.Unlock()
		return jobs.Status{}, resp.StatusCode, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return jobs.Status{}, resp.StatusCode, fmt.Errorf("loadgen: submit answered %s: %s", resp.Status, msg)
	}
}

// submitRetry submits like a well-behaved production client: a 429 is
// backed off and retried until the queue admits the job. Functional
// scenarios use this so a storm on a small queue still completes its
// configured work; only the overload scenario treats a 429 as final.
// Every 429 still lands in the shed counter, so the rejected-counter
// accounting stays exact.
func (h *Harness) submitRetry(spec jobs.Spec) (jobs.Status, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, code, err := h.submit(spec)
		if err != nil {
			return st, err
		}
		if code == http.StatusAccepted {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("loadgen: queue still full after 90s of retries")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// submitOversized sends a syntactically valid spec padded past the
// server's body bound and expects 413 — the harness's own probe of the
// MaxBytesReader path.
func (h *Harness) submitOversized() error {
	pad := strings.Repeat("x", int(h.cfg.OversizedBytes))
	body := `{"analysis":"psa","path":"` + pad + `"}`
	h.mu.Lock()
	h.oversizedSent++
	h.mu.Unlock()
	resp, err := h.hc.Post(h.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		// MaxBytesReader may reset the connection mid-upload instead of
		// draining it; that still proves the bound. Count it as tripped.
		h.mu.Lock()
		h.oversized413++
		h.mu.Unlock()
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		h.mu.Lock()
		h.oversized413++
		h.mu.Unlock()
	}
	return nil
}

// status fetches one job's status.
func (h *Harness) status(id string) (jobs.Status, error) {
	var st jobs.Status
	err := h.getJSON("/v1/jobs/"+id, &st)
	return st, err
}

// cancel issues DELETE /v1/jobs/{id}; 200 and 409 (already terminal)
// are both fine — the storm races completion by design.
func (h *Harness) cancel(id string) error {
	req, err := http.NewRequest(http.MethodDelete, h.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("loadgen: cancel of %s: %s", id, resp.Status)
	}
	return nil
}

// waitTerminal polls one job until it reaches a terminal state,
// returning the final status. States outside allowed are registered as
// lost work for the invariant check (nil allowed: done only).
func (h *Harness) waitTerminal(id string, allowed ...jobs.State) (jobs.Status, error) {
	if len(allowed) == 0 {
		allowed = []jobs.State{jobs.StateDone}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := h.status(id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			ok := false
			for _, a := range allowed {
				if st.State == a {
					ok = true
					break
				}
			}
			if !ok {
				h.mu.Lock()
				h.lost = append(h.lost, fmt.Sprintf("%s:%s(%s)", id, st.State, st.Error))
				h.mu.Unlock()
			}
			if st.State == jobs.StateCancelled {
				h.mu.Lock()
				h.cancelled++
				h.mu.Unlock()
			}
			return st, nil
		}
		if time.Now().After(deadline) {
			h.mu.Lock()
			h.lost = append(h.lost, id+":stuck-"+string(st.State))
			h.mu.Unlock()
			return st, fmt.Errorf("loadgen: job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// matrix downloads a done job's result and returns its matrix field
// as the server encoded it, byte for byte.
func (h *Harness) matrix(id string) (json.RawMessage, error) {
	var res struct {
		Matrix json.RawMessage `json:"matrix"`
	}
	err := h.getJSON("/v1/jobs/"+id+"/result", &res)
	return res.Matrix, err
}

// snapshot scrapes the server's three observability surfaces at once.
type snapshot struct {
	prom     PromMetrics
	svc      jobs.ServiceMetrics
	fleet    *fleet.StatsView
	promErr  error
	fleetErr error
}

func (h *Harness) snapshot() (snapshot, error) {
	var s snapshot
	if err := h.getJSON("/v1/metrics", &s.svc); err != nil {
		return s, fmt.Errorf("loadgen: scraping /v1/metrics: %w", err)
	}
	s.prom, _, s.promErr = h.scrape(h.base)
	if v, err := h.fleetView(); err == nil {
		s.fleet = &v
	} else {
		s.fleetErr = err
	}
	return s, nil
}

// drain waits for the scheduler to go idle: no queued or running jobs.
func (h *Harness) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s, err := h.snapshot()
		if err != nil {
			return err
		}
		if s.svc.Jobs[jobs.StateQueued] == 0 && s.svc.Jobs[jobs.StateRunning] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: scheduler not drained after %s (queued=%d running=%d)",
				timeout, s.svc.Jobs[jobs.StateQueued], s.svc.Jobs[jobs.StateRunning])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrape fetches and parses the Prometheus exposition at base/metrics
// and returns its Content-Type.
func (h *Harness) scrape(base string) (PromMetrics, string, error) {
	resp, err := h.hc.Get(base + "/metrics")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("loadgen: GET %s/metrics: %s", base, resp.Status)
	}
	pm, err := ParseProm(resp.Body)
	return pm, resp.Header.Get("Content-Type"), err
}

// goroutines samples the server's go_goroutines gauge.
func (h *Harness) goroutines() (float64, error) {
	pm, _, err := h.scrape(h.base)
	if err != nil {
		return 0, err
	}
	v, ok := pm.Value("go_goroutines")
	if !ok {
		return 0, fmt.Errorf("loadgen: go_goroutines not exposed")
	}
	return v, nil
}
