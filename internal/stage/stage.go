// Package stage is the staged compute unit the pilot and fleet engines
// share: the paper's RADICAL-Pilot compute unit, a description staged
// in, executed, and staged out. Each analysis defines its unit once —
// psa.go one block of the distance matrix, leaflet.go one live tile of
// the Leaflet Finder grid — as a block-store key (PSA only: Leaflet
// results are cached as whole jobs), the named input blobs it reads, a
// JSON description of its geometry and parameters, a body
// that runs the kernel the in-process executors run, and a check of
// what the body stages out. Job is the one driver both engines call:
// plan → serve the block store's hits → the transport runs the misses →
// check every result → one Add and one Put each → assemble. The engines
// keep only their transports (sandbox files in internal/pilot, HTTP
// leases in internal/fleet), so a third analysis on the staged engines
// is one more unit definition here.
package stage

import (
	"encoding/json"
	"fmt"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
)

// Unit is one staged compute unit of a Plan.
type Unit struct {
	// Kind names the analysis whose body runs the unit ("psa" or
	// "leaflet").
	Kind string
	// Key is the unit's block-store address, the one the in-process
	// engines' task bodies use ("": the unit is never cached).
	Key string
	// Inputs names the blobs the body reads; Plan.Blob serves them.
	Inputs []string
	// Stream marks inputs the body reads window by window: a transport
	// fetches them on demand and keeps none, so at most two windows are
	// resident whatever the trajectory length.
	Stream bool
	// Desc is the unit's geometry and parameters, the body's argument.
	Desc json.RawMessage
}

// Plan is one job cut into staged units: what runs, the input blobs the
// units read, and how their checked results fold back into the job's
// result.
type Plan interface {
	Units() []Unit
	// Blob returns a named input blob; a name no unit reads is an error.
	Blob(name string) ([]byte, error)
	// Record keeps v, already checked against unit i, as its result.
	Record(i int, v any)
	// Assemble builds the job's result once every unit is recorded.
	Assemble() any
}

// Env is what a transport hands a unit body: the run's task
// environment (the unit's own Metrics sink, whose snapshot the
// transport ships, and the cancellation and instrumentation the
// in-process task bodies get) plus the unit's inputs.
type Env struct {
	engine.Env
	// Fetch returns one of the unit's input blobs by name.
	Fetch func(name string) ([]byte, error)
	// MaxBlobBytes, when positive, bounds what one input blob and a
	// streamed trajectory's per-frame state may claim, so a hostile
	// description cannot size an allocation.
	MaxBlobBytes int64
}

// kind is one analysis's staged unit: its body and the check of what
// the body stages out.
type kind struct {
	exec func(desc json.RawMessage, env Env) ([]byte, error)
	// decode parses a payload; check validates a value — decoded from a
	// payload or recalled from the block store — as the result of the
	// unit desc describes, returning its size in the store.
	decode func(payload []byte) (any, error)
	check  func(desc json.RawMessage, v any) (int64, error)
}

var kinds = map[string]kind{
	kindPSA:     {exec: execPSA, decode: decodePSA, check: checkPSA},
	kindLeaflet: {exec: execLeaflet, decode: decodeLeaflet, check: checkLeaflet},
}

func lookup(name string) (kind, error) {
	k, ok := kinds[name]
	if !ok {
		return kind{}, fmt.Errorf("stage: unknown unit kind %q", name)
	}
	return k, nil
}

// Exec runs unit u's body, returning the payload to stage out. Only
// the unit's kind and description are read: that is all a transport
// ships to where the body runs.
func Exec(u Unit, env Env) ([]byte, error) {
	k, err := lookup(u.Kind)
	if err != nil {
		return nil, err
	}
	return k.exec(u.Desc, env)
}

// Done is one unit's checked output, ready to fold.
type Done struct {
	value   any
	size    int64
	metrics engine.Snapshot
}

// Check validates what unit u staged out — its payload against its
// description, its accounting with Snapshot.Valid — and changes
// nothing.
func Check(u Unit, payload []byte, snap engine.Snapshot) (Done, error) {
	if err := snap.Valid(); err != nil {
		return Done{}, err
	}
	k, err := lookup(u.Kind)
	if err != nil {
		return Done{}, err
	}
	v, err := k.decode(payload)
	if err != nil {
		return Done{}, err
	}
	size, err := k.check(u.Desc, v)
	if err != nil {
		return Done{}, err
	}
	return Done{value: v, size: size, metrics: snap}, nil
}

// Job is one Plan in flight: Start serves the block store's hits, the
// transport runs Missing and passes each unit's output through Check,
// and Fold records it. Fold and Result are not safe for concurrent use
// (the fleet coordinator calls them under its lock); Blob is, since
// plans encode blobs from what they were built with.
type Job struct {
	plan    Plan
	units   []Unit
	store   *blockstore.Store
	metrics *engine.Metrics
	missing []int
}

// Start plans a job and serves every unit the block store holds,
// accounting hits and misses into m (nil: nowhere) and the units left
// to run as the tasks it plans. A stored value that fails its unit's
// check counts as a miss and runs. The plan's units must be of
// registered kinds.
func Start(plan Plan, store *blockstore.Store, m *engine.Metrics) *Job {
	j := &Job{plan: plan, units: plan.Units(), store: store, metrics: m}
	for i, u := range j.units {
		if store != nil && u.Key != "" {
			if v, ok := store.Get(u.Key); ok {
				if size, err := kinds[u.Kind].check(u.Desc, v); err == nil {
					plan.Record(i, v)
					m.AddBlockCache(1, 0, size)
					continue
				}
			}
			m.AddBlockCache(0, 1, 0)
		}
		j.missing = append(j.missing, i)
	}
	m.Add(engine.Snapshot{TasksPlanned: int64(len(j.missing))})
	return j
}

// Units returns the plan's units.
func (j *Job) Units() []Unit { return j.units }

// Missing lists the units the block store did not serve, in plan order.
func (j *Job) Missing() []int { return j.missing }

// Blob serves one of the plan's input blobs.
func (j *Job) Blob(name string) ([]byte, error) { return j.plan.Blob(name) }

// Fold records unit i's checked output: its value into the plan, its
// accounting into the job's sink, and its value into the block store.
func (j *Job) Fold(i int, d Done) {
	j.plan.Record(i, d.value)
	j.metrics.Add(d.metrics)
	if key := j.units[i].Key; j.store != nil && key != "" {
		j.store.Put(key, d.value, d.size)
	}
}

// Result assembles the job's result once every unit is recorded.
func (j *Job) Result() any { return j.plan.Assemble() }
