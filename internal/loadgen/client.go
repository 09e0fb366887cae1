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
		resp, err := h.hc.Get(h.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadgen: server %s unreachable: %w", h.base, err)
			}
			return fmt.Errorf("loadgen: server %s unhealthy", h.base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// warmup exercises the read path unrecorded so connection setup and
// first-hit allocation costs don't land in the first scenario's tail.
func (h *Harness) warmup(d time.Duration) {
	until := time.Now().Add(d)
	for time.Now().Before(until) {
		if resp, err := h.hc.Get(h.base + "/v1/metrics"); err == nil {
			resp.Body.Close()
		}
		time.Sleep(20 * time.Millisecond)
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
	resp, err := h.hc.Get(h.base + "/v1/jobs/" + id)
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Status{}, fmt.Errorf("loadgen: status of %s: %s", id, resp.Status)
	}
	var st jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
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

// fetchResult downloads a done job's result body; the body is decoded only far enough to prove it parses.
func (h *Harness) fetchResult(id string) error {
	resp, err := h.hc.Get(h.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: result of %s: %s", id, resp.Status)
	}
	var res struct{}
	return json.NewDecoder(resp.Body).Decode(&res)
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
	resp, err := h.hc.Get(h.base + "/v1/metrics")
	if err != nil {
		return s, fmt.Errorf("loadgen: scraping /v1/metrics: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&s.svc)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("loadgen: decoding /v1/metrics: %w", err)
	}
	if resp, err = h.hc.Get(h.base + "/metrics"); err == nil {
		s.prom, s.promErr = ParseProm(resp.Body)
		resp.Body.Close()
	} else {
		s.promErr = err
	}
	if resp, err = h.hc.Get(h.base + "/v1/fleet"); err == nil {
		if resp.StatusCode == http.StatusOK {
			var fs fleet.StatsView
			if err := json.NewDecoder(resp.Body).Decode(&fs); err == nil {
				s.fleet = &fs
			} else {
				s.fleetErr = err
			}
		}
		resp.Body.Close()
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

// workers returns how many fleet workers are currently registered.
func (h *Harness) workers() int {
	s, err := h.snapshot()
	if err != nil || s.fleet == nil {
		return 0
	}
	return s.fleet.Workers
}

// goroutines samples the server's go_goroutines gauge.
func (h *Harness) goroutines() (float64, error) {
	resp, err := h.hc.Get(h.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	pm, err := ParseProm(resp.Body)
	if err != nil {
		return 0, err
	}
	v, ok := pm.Value("go_goroutines")
	if !ok {
		return 0, fmt.Errorf("loadgen: go_goroutines not exposed")
	}
	return v, nil
}

// deadline returns the storm cutoff implied by cfg.Duration (zero
// time: no cap) for scenarios that honor -duration.
func (h *Harness) deadline() time.Time {
	if h.cfg.Duration <= 0 {
		return time.Time{}
	}
	return time.Now().Add(h.cfg.Duration)
}

// expired reports whether the storm cutoff passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}
