// Package pilot is a RADICAL-Pilot-like task runtime: a pilot acquires a
// resource slice and an agent executes Compute-Units submitted through a
// coordination database. The package reproduces the architectural
// properties the paper measures (§3.3, §4.1):
//
//   - every unit's life cycle (NEW → SCHEDULING → EXECUTING → DONE) is
//     driven through a DB with a configurable round-trip latency, which
//     serializes coordination and caps task throughput;
//   - units exchange data through real files in a shared staging
//     directory (there is no shuffle data plane);
//   - the agent polls the DB on an interval, adding dispatch delay.
package pilot

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdtask/internal/engine"
)

// State is a Compute-Unit life-cycle state.
type State string

// Unit life-cycle states, in order.
const (
	StateNew        State = "NEW"
	StateScheduling State = "SCHEDULING"
	StateExecuting  State = "EXECUTING"
	StateDone       State = "DONE"
	StateFailed     State = "FAILED"
)

// DB simulates the MongoDB coordination store: a key-value unit table
// whose every operation costs one network round trip.
type DB struct {
	latency time.Duration

	mu    sync.Mutex
	units map[int]*record
}

type record struct {
	state State
	err   string
}

// NewDB creates a store with the given per-operation round-trip latency.
func NewDB(latency time.Duration) *DB {
	return &DB{latency: latency, units: make(map[int]*record)}
}

func (db *DB) roundTrip() {
	if db.latency > 0 {
		time.Sleep(db.latency)
	}
}

// Insert registers a unit in state NEW.
func (db *DB) Insert(id int) {
	db.roundTrip()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.units[id] = &record{state: StateNew}
}

// SetState transitions a unit, recording an error message for FAILED.
func (db *DB) SetState(id int, s State, errMsg string) error {
	db.roundTrip()
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.units[id]
	if !ok {
		return fmt.Errorf("pilot: unknown unit %d", id)
	}
	r.state = s
	r.err = errMsg
	return nil
}

// GetState reads a unit's state.
func (db *DB) GetState(id int) (State, string, error) {
	db.roundTrip()
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.units[id]
	if !ok {
		return "", "", fmt.Errorf("pilot: unknown unit %d", id)
	}
	return r.state, r.err, nil
}

// ClaimNew atomically claims up to max units in state NEW, moving them
// to SCHEDULING, and returns their ids (one round trip for the batch,
// like the agent's bulk pull).
func (db *DB) ClaimNew(max int) []int {
	db.roundTrip()
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []int
	for id, r := range db.units {
		if r.state == StateNew {
			r.state = StateScheduling
			out = append(out, id)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// UnitFunc is the "executable" of a Compute-Unit. It runs in a sandbox
// directory where input files have been staged; anything it writes there
// becomes retrievable output.
type UnitFunc func(sandbox string) error

// UnitDescription describes a task prior to submission.
type UnitDescription struct {
	Name string
	Fn   UnitFunc
	// InputFiles are staged into the sandbox before execution.
	InputFiles map[string][]byte
	// OutputFiles are collected from the sandbox after execution.
	OutputFiles []string
}

// Unit is a submitted Compute-Unit.
type Unit struct {
	ID      int
	Desc    UnitDescription
	Sandbox string

	mu      sync.Mutex
	outputs map[string][]byte
}

// Output returns the bytes of a collected output file.
func (u *Unit) Output(name string) ([]byte, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	b, ok := u.outputs[name]
	return b, ok
}

// Config tunes the runtime's simulated coordination costs. The zero
// value gives a fast configuration suitable for tests; Defaults gives
// paper-like latencies.
type Config struct {
	// DBLatency is the coordination-database round-trip time.
	DBLatency time.Duration
	// AgentPollInterval is how often the agent pulls NEW units.
	AgentPollInterval time.Duration
	// ClientPollInterval is how often Wait polls unit states.
	ClientPollInterval time.Duration
}

// Defaults returns paper-like latencies scaled down ~100x so that test
// suites finish quickly while preserving the ordering of costs
// (DB round trip >> agent poll > client poll).
func Defaults() Config {
	return Config{
		DBLatency:          500 * time.Microsecond,
		AgentPollInterval:  2 * time.Millisecond,
		ClientPollInterval: 2 * time.Millisecond,
	}
}

// Pilot is an acquired resource slice plus its agent.
type Pilot struct {
	sem     *semaphore
	db      *DB
	cfg     Config
	dir     string
	metrics *engine.Metrics

	mu      sync.Mutex
	units   map[int]*Unit
	nextID  int
	stopped chan struct{}
	done    sync.WaitGroup
}

// NewPilot starts a pilot with the given core count (worker goroutines)
// using dir for unit sandboxes. The agent runs until Shutdown.
func NewPilot(cores int, dir string, db *DB, cfg Config, m *engine.Metrics) (*Pilot, error) {
	if cores < 1 {
		cores = 1
	}
	if m == nil {
		m = &engine.Metrics{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pilot: creating sandbox root: %w", err)
	}
	p := &Pilot{
		sem:     newSemaphore(cores),
		db:      db,
		cfg:     cfg,
		dir:     dir,
		metrics: m,
		units:   make(map[int]*Unit),
		stopped: make(chan struct{}),
	}
	p.done.Add(1)
	go p.agent()
	return p, nil
}

// Metrics returns the pilot's metrics sink.
func (p *Pilot) Metrics() *engine.Metrics { return p.metrics }

// Cores returns the pilot's current worker parallelism.
func (p *Pilot) Cores() int { return p.sem.capacity() }

// Submit registers units with the coordination DB and returns handles.
func (p *Pilot) Submit(descs []UnitDescription) []*Unit {
	units := make([]*Unit, len(descs))
	for i, d := range descs {
		p.mu.Lock()
		id := p.nextID
		p.nextID++
		u := &Unit{ID: id, Desc: d, Sandbox: filepath.Join(p.dir, fmt.Sprintf("unit.%06d", id))}
		p.units[id] = u
		p.mu.Unlock()
		p.db.Insert(id)
		units[i] = u
	}
	return units
}

// agent is the pilot's scheduler/executor loop: it claims NEW units from
// the DB and executes them on a bounded worker set.
func (p *Pilot) agent() {
	defer p.done.Done()
	var running sync.WaitGroup
	ticker := time.NewTicker(p.cfg.AgentPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopped:
			running.Wait()
			return
		case <-ticker.C:
		}
		for _, id := range p.db.ClaimNew(4 * p.sem.capacity()) {
			p.mu.Lock()
			u := p.units[id]
			p.mu.Unlock()
			if u == nil {
				continue
			}
			if !p.sem.acquire(p.stopped) {
				running.Wait()
				return // shutting down
			}
			running.Add(1)
			go func(u *Unit) {
				defer func() { p.sem.release(); running.Done() }()
				p.execute(u)
			}(u)
		}
	}
}

// setState drives a unit's state transition through the DB. The pilot
// registered the unit at Submit, so the DB cannot miss it and the error
// is dropped.
func (p *Pilot) setState(id int, s State, msg string) { _ = p.db.SetState(id, s, msg) }

// execute stages, runs, and collects one unit, driving its state
// through the DB.
func (p *Pilot) execute(u *Unit) {
	fail := func(err error) {
		p.metrics.RecordFailure()
		p.setState(u.ID, StateFailed, err.Error())
	}
	if err := os.MkdirAll(u.Sandbox, 0o755); err != nil {
		fail(err)
		return
	}
	for name, data := range u.Desc.InputFiles {
		if err := os.WriteFile(filepath.Join(u.Sandbox, name), data, 0o644); err != nil {
			fail(fmt.Errorf("staging input %s: %w", name, err))
			return
		}
		p.metrics.AddStaged(int64(len(data)))
	}
	p.setState(u.ID, StateExecuting, "")
	start := time.Now()
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("unit %d panicked: %v", u.ID, v)
			}
		}()
		if u.Desc.Fn == nil {
			return nil
		}
		return u.Desc.Fn(u.Sandbox)
	}()
	p.metrics.RecordTask(time.Since(start))
	if err != nil {
		fail(err)
		return
	}
	outputs := make(map[string][]byte, len(u.Desc.OutputFiles))
	for _, name := range u.Desc.OutputFiles {
		data, rerr := os.ReadFile(filepath.Join(u.Sandbox, name))
		if rerr != nil {
			fail(fmt.Errorf("collecting output %s: %w", name, rerr))
			return
		}
		outputs[name] = data
		p.metrics.AddStaged(int64(len(data)))
	}
	u.mu.Lock()
	u.outputs = outputs
	u.mu.Unlock()
	p.setState(u.ID, StateDone, "")
}

// Wait blocks until every unit reaches DONE or FAILED, returning an
// error listing failures (or a DB error).
func (p *Pilot) Wait(units []*Unit) error {
	pendingSet := make(map[int]*Unit, len(units))
	for _, u := range units {
		pendingSet[u.ID] = u
	}
	var failures []string
	for len(pendingSet) > 0 {
		time.Sleep(p.cfg.ClientPollInterval)
		for id, u := range pendingSet {
			st, msg, err := p.db.GetState(id)
			if err != nil {
				return fmt.Errorf("pilot: waiting for unit %d: %w", id, err)
			}
			switch st {
			case StateDone:
				delete(pendingSet, id)
			case StateFailed:
				failures = append(failures, fmt.Sprintf("unit %d (%s): %s", id, u.Desc.Name, msg))
				delete(pendingSet, id)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("pilot: %d unit(s) failed: %v", len(failures), failures)
	}
	return nil
}

// Shutdown stops the agent and waits for in-flight units.
func (p *Pilot) Shutdown() {
	close(p.stopped)
	p.done.Wait()
}

// semaphore is the pilot's counting semaphore over its cores; acquire
// also gives up when the pilot shuts down.
type semaphore struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

func newSemaphore(capacity int) *semaphore {
	s := &semaphore{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until a slot is free or stop is closed; it reports
// whether a slot was obtained.
func (s *semaphore) acquire(stop <-chan struct{}) bool {
	// Wake waiters when stop closes.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			s.cond.Broadcast()
		case <-done:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.used >= s.cap {
		select {
		case <-stop:
			return false
		default:
		}
		s.cond.Wait()
		select {
		case <-stop:
			return false
		default:
		}
	}
	s.used++
	return true
}

func (s *semaphore) release() {
	s.mu.Lock()
	s.used--
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *semaphore) capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}
