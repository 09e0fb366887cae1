package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingStore is a Store that remembers which job ids were
// journaled at submission, so overload tests can prove the
// journal-before-acknowledge invariant: every 202 is journaled, no 429
// ever is.
type recordingStore struct {
	mu      sync.Mutex
	submits []string
}

func (r *recordingStore) JournalSubmit(rec JobRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submits = append(r.submits, rec.ID)
	return nil
}
func (r *recordingStore) JournalState(string, State, string, string, time.Time) error { return nil }
func (r *recordingStore) JournalPrune([]string) error                                 { return nil }
func (r *recordingStore) JournalShutdown() error                                      { return nil }

func (r *recordingStore) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.submits...)
}

// promCounter scrapes one unlabelled counter's value from the
// scheduler's Prometheus registry.
func promCounter(t *testing.T, s *Scheduler, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := s.Obs().Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("counter %s not found in exposition", name)
	return 0
}

// TestAPIOverloadSheddingAccounting saturates the API with concurrent
// submissions against a parked worker and a tiny queue, then audits
// the books: accepted + shed == sent, every 429 carries Retry-After,
// mdtask_jobs_rejected_total matches the shed count EXACTLY, and the
// journal holds precisely the acknowledged ids — no submission is ever
// both journaled and rejected, and none vanishes unaccounted.
func TestAPIOverloadSheddingAccounting(t *testing.T) {
	const depth, storm = 4, 32
	// Every admitted job eventually runs and reports a start event;
	// size the channel so none of them blocks on it after release.
	started := make(chan string, storm+2)
	release := make(chan struct{})
	rec := &recordingStore{}
	s := NewScheduler(blockingRegistry(started, release), Options{Workers: 1, QueueDepth: depth, Journal: rec})
	ts := httptest.NewServer(NewServerWith(s, ServerOptions{}))
	defer func() {
		ts.Close()
		s.Close()
	}()

	spec := validPSASpec()
	spec.Engine = EngineSerial
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Park the only worker so the queue can only fill, never drain: the
	// storm's accepted/shed split becomes exact, not timing-dependent.
	first := submitJob(t, ts.URL, spec)
	<-started

	type outcome struct {
		code       int
		id         string
		retryAfter string
	}
	outcomes := make([]outcome, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st Status
			_ = json.NewDecoder(resp.Body).Decode(&st)
			outcomes[i] = outcome{code: resp.StatusCode, id: st.ID, retryAfter: resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	accepted := map[string]bool{}
	shed := 0
	for i, o := range outcomes {
		switch o.code {
		case http.StatusAccepted:
			if o.id == "" {
				t.Errorf("submission %d accepted without an id", i)
			}
			accepted[o.id] = true
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Errorf("submission %d shed without Retry-After", i)
			}
		default:
			t.Errorf("submission %d: unexpected status %d", i, o.code)
		}
	}
	// The worker is parked and the queue bounded: exactly depth
	// submissions fit, the rest shed.
	if len(accepted) != depth || shed != storm-depth {
		t.Fatalf("accepted %d / shed %d, want %d / %d", len(accepted), shed, depth, storm-depth)
	}

	// The rejection counter matches the shed count exactly — no
	// double-counted or silent rejections.
	if got := promCounter(t, s, "mdtask_jobs_rejected_total"); got != float64(shed) {
		t.Errorf("mdtask_jobs_rejected_total = %g, want %d", got, shed)
	}
	if got := promCounter(t, s, "mdtask_jobs_submitted_total"); got != float64(len(accepted)+1) {
		t.Errorf("mdtask_jobs_submitted_total = %g, want %d", got, len(accepted)+1)
	}

	// Journal audit: exactly the acknowledged ids (plus the parked
	// first job), in particular nothing that was answered 429.
	journaled := rec.ids()
	wantJournal := map[string]bool{first.ID: true}
	for id := range accepted {
		wantJournal[id] = true
	}
	if len(journaled) != len(wantJournal) {
		t.Fatalf("journal holds %d submissions %v, want %d", len(journaled), journaled, len(wantJournal))
	}
	for _, id := range journaled {
		if !wantJournal[id] {
			t.Errorf("journal holds %s, which the API never acknowledged", id)
		}
	}

	// Drain: every acknowledged job must reach a terminal state.
	close(release)
	for id := range accepted {
		if st := pollJob(t, ts.URL, id); st.State != StateDone {
			t.Errorf("accepted job %s finished %s (%s)", id, st.State, st.Error)
		}
	}
	if st := pollJob(t, ts.URL, first.ID); st.State != StateDone {
		t.Errorf("first job finished %s (%s)", st.State, st.Error)
	}

	// And with the queue drained, the API accepts again.
	st := submitJob(t, ts.URL, spec)
	if st.ID == "" {
		t.Fatal("post-drain submission not accepted")
	}
}
