package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads. It is
// decoded from the wire by JSON name, not through internal/jobs, so the
// planned metrics-struct refactors cannot break the generator's build.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	CacheHit bool       `json:"cache_hit"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Metrics  struct {
		Tasks                int64 `json:"tasks"`
		ComputeNS            int64 `json:"compute_ns"`
		MaxTaskNS            int64 `json:"max_task_ns"`
		BytesShuffled        int64 `json:"bytes_shuffled"`
		PeakResidentFrames   int64 `json:"peak_resident_frames"`
		BytesStreamed        int64 `json:"bytes_streamed"`
		BlockCacheHits       int64 `json:"block_cache_hits"`
		BlockCacheMisses     int64 `json:"block_cache_misses"`
		BlockCacheBytesSaved int64 `json:"block_cache_bytes_saved"`
	} `json:"metrics"`
}

func (st jobStatus) terminal() bool {
	return st.State == "done" || st.State == "failed" || st.State == "cancelled"
}

// outcome is one job as the client saw it.
type outcome struct {
	Job     job
	Stream  int
	Index   int           // position in the stream
	Submit  time.Duration // POST round trip (the last attempt's, after any 429 waits)
	Latency time.Duration // POST sent → result body read, retries included
	Polls   int
	Retries int // 429s answered before admission
	Status  jobStatus
	Body    []byte // result body
	Err     error  // transport error, non-2xx, or a job that did not end "done"
	Failure string // why verification rejected it ("" if it passed)
}

// newHTTPClient returns a keep-alive client sized for n concurrent
// closed-loop callers. It sets no per-request timeout (a timer per
// request is generator CPU the server then lacks); the run's context
// carries the deadline instead.
func newHTTPClient(n int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// fetch runs one request and returns status code, headers and the fully
// read body.
func fetch(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// runJob drives one job through its whole life: POST, poll the status
// at once and then every millisecond until it is terminal, GET the
// result. A 429 is retried after its Retry-After and the wait counts in
// the job's latency.
func runJob(ctx context.Context, hc *http.Client, base string, j job) (out outcome) {
	out.Job = j
	start := time.Now()
	defer func() { out.Latency = time.Since(start) }()
	for {
		sent := time.Now()
		code, hdr, raw, err := fetch(ctx, hc, http.MethodPost, base+"/v1/jobs", j.Body)
		out.Submit = time.Since(sent)
		if err != nil {
			out.Err = err
			return out
		}
		if code == http.StatusTooManyRequests && out.Retries < 30 {
			out.Retries++
			wait, perr := strconv.Atoi(hdr.Get("Retry-After"))
			if perr != nil || wait < 1 {
				wait = 1
			}
			select {
			case <-ctx.Done():
				out.Err = ctx.Err()
				return out
			case <-time.After(time.Duration(wait) * time.Second):
			}
			continue
		}
		if code != http.StatusAccepted {
			out.Err = fmt.Errorf("POST /v1/jobs: %d: %s", code, bytes.TrimSpace(raw))
			return out
		}
		if err := json.Unmarshal(raw, &out.Status); err != nil {
			out.Err = fmt.Errorf("decoding submit status: %w", err)
			return out
		}
		break
	}
	statusURL := base + "/v1/jobs/" + out.Status.ID
	for {
		code, _, raw, err := fetch(ctx, hc, http.MethodGet, statusURL, nil)
		out.Polls++
		if err != nil {
			out.Err = err
			return out
		}
		if code != http.StatusOK {
			out.Err = fmt.Errorf("GET %s: %d (job lost): %s", statusURL, code, bytes.TrimSpace(raw))
			return out
		}
		if err := json.Unmarshal(raw, &out.Status); err != nil {
			out.Err = fmt.Errorf("decoding status: %w", err)
			return out
		}
		if out.Status.terminal() {
			break
		}
		select {
		case <-ctx.Done():
			out.Err = ctx.Err()
			return out
		case <-time.After(time.Millisecond):
		}
	}
	if out.Status.State != "done" {
		out.Err = fmt.Errorf("job %s ended %s: %s", out.Status.ID, out.Status.State, out.Status.Error)
		return out
	}
	code, _, raw, err := fetch(ctx, hc, http.MethodGet, statusURL+"/result", nil)
	if err != nil {
		out.Err = err
		return out
	}
	if code != http.StatusOK {
		out.Err = fmt.Errorf("GET result of %s: %d: %s", out.Status.ID, code, bytes.TrimSpace(raw))
		return out
	}
	out.Body = raw
	return out
}

// runClients runs the workload's closed loop: each client submits its
// stream's next job only after the previous one's result is read, until
// the deadline passes, its stream ends, or maxJobs are done.
// firstStream selects timed (0) or warm-up (w.clients) streams.
// It returns every outcome in completion order per client and the wall
// time from the first submission to the last result.
func runClients(ctx context.Context, hc *http.Client, base string, w workload, seed uint64, sc scale,
	dir string, firstStream int, window time.Duration, maxJobs int) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		all  []outcome
		wg   sync.WaitGroup
		t0   = time.Now()
		stop = t0.Add(window)
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			var mine []outcome
			for i := 0; i < maxJobs && time.Now().Before(stop) && ctx.Err() == nil; i++ {
				j, ok := w.job(seed, sc, dir, stream, i)
				if !ok {
					break
				}
				o := runJob(ctx, hc, base, j)
				o.Stream, o.Index = stream, i
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(firstStream + c)
	}
	wg.Wait()
	return all, time.Since(t0)
}
