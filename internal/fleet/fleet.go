// Package fleet is the distributed execution layer of the repository:
// a coordinator that fans the staged units of a job (internal/stage:
// PSA matrix blocks, Leaflet Finder tiles — the same block schedules
// the in-process engines run) out across processes and machines over a
// pull-based HTTP worker protocol — the reproduction of the paper's
// pilot-agent split (a coordinator decomposes work into tasks;
// independent agent processes pull, execute, and ship results back).
// It is the fleet's transport and nothing more: a lease carries a
// unit's kind and description, a worker runs it with stage.Exec, and
// the coordinator checks and folds what comes back with stage.Job, so
// no analysis appears here.
//
// # Protocol
//
// Workers drive everything; the coordinator never dials out:
//
//	POST   /v1/workers                        register   → worker id + intervals
//	POST   /v1/workers/{id}/heartbeat         liveness
//	POST   /v1/workers/{id}/lease             pull one unit: {kind, desc} (204: none)
//	POST   /v1/workers/{id}/results           ship a unit's payload and metrics back
//	DELETE /v1/workers/{id}                   graceful deregister (requeues leases)
//	GET    /v1/fleet                          coordinator stats
//	GET    /v1/fleet/jobs/{id}/input/{name}   one input blob of a job's units
//
// Every input a unit reads is one named blob — a trajectory, a window
// of one, a chunk of coordinates — encoded by the job's plan when a
// worker asks. A worker caches the blobs of an in-memory job for the
// job's life, so each is fetched at most once per worker whatever the
// executor parallelism; a streamed unit's windows are fetched on demand
// and never cached, so at most two windows are resident.
//
// # Lease semantics
//
// A lease grants one worker one work unit until a deadline, LeaseTTL after the grant. Every
// contact from the holding worker — a heartbeat, another lease
// request, a result post — renews its held leases to a fresh TTL, so
// a unit that computes for longer than LeaseTTL on a live worker is
// never revoked. Exactly three things can happen to a lease:
//
//   - The worker posts the unit's result: the lease is retired, the
//     result recorded, and the unit is done.
//   - The deadline passes with no renewing contact: the sweeper
//     revokes the lease and requeues the unit at the front of the
//     queue, so the next lease request picks it up. A late post
//     against a revoked lease is rejected with 409 and discarded —
//     whichever worker completes the requeued unit first wins, and
//     since every unit is a deterministic pure function of the job
//     input, either result is the same.
//   - The worker misses heartbeats for HeartbeatTTL: the worker is
//     declared dead and all of its leases are revoked and requeued at
//     once, without waiting for the individual deadlines.
//
// Units are therefore at-least-once; recording is exactly-once (the
// first accepted result wins, duplicates are rejected), so killing a
// worker mid-job never loses a block and never double-counts metrics.
// Assembled results are bit-identical to the serial reference because
// the unit bodies are the very same ComputeBlockRefs/BlockPartial kernels
// the in-process engines run, and all floats cross the wire as exact
// little-endian bit patterns, never as decimal text. A result carries
// its unit's engine.Snapshot, and the wire is not versioned: mdserver
// and mdworker must come from the same build.
package fleet

import (
	"errors"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/obs"
)

// Errors surfaced by the coordinator.
var (
	// ErrAborted is returned by Job.Wait when the job was aborted (the
	// cooperative-cancellation path of the jobs layer).
	ErrAborted = errors.New("fleet: job aborted")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("fleet: coordinator closed")
	// ErrStaleLease rejects a result posted against a lease that was
	// revoked (expired, worker declared dead, or job gone).
	ErrStaleLease = errors.New("fleet: lease no longer held")
	// ErrUnknownWorker rejects requests from unregistered worker ids;
	// workers respond by re-registering.
	ErrUnknownWorker = errors.New("fleet: unknown worker")
)

// Options tunes the coordinator's failure detectors. The zero value
// gets production defaults; tests and local fleets shrink everything.
type Options struct {
	// LeaseTTL is how long a worker may hold one work unit without any
	// renewing contact before the sweeper requeues it (default 15s).
	// Unit compute time does not bound it: heartbeats renew held
	// leases, so only a silent worker's lease expires.
	LeaseTTL time.Duration
	// HeartbeatTTL is how long a worker may stay silent — no heartbeat,
	// lease, or result — before it is declared dead and its leases are
	// requeued (default 5s).
	HeartbeatTTL time.Duration
	// SweepEvery is the failure-detector period (default 500ms).
	SweepEvery time.Duration
	// HeartbeatEvery is the interval advertised to workers at
	// registration (default HeartbeatTTL/3).
	HeartbeatEvery time.Duration
	// PollEvery is the idle-poll interval advertised to workers when no
	// work is available (default 200ms).
	PollEvery time.Duration
	// BlockStore, when set, is the content-addressed result store the
	// coordinator consults before leasing any work unit: units whose
	// block is already cached are recorded at admission and never fan
	// out, and every validated worker result is recorded back, so
	// blocks computed by in-process engines, earlier fleet jobs, or
	// other workers are shared. Nil disables unit-level caching.
	BlockStore *blockstore.Store
	// Tracer, when set, records the coordinator-side spans of every
	// job: a fleet.job span per submission, a fleet.lease span per
	// grant (carrying its outcome, and a requeue_of link when the unit
	// is a retry of a revoked lease), and a fleet.record span per
	// accepted result. Worker-shipped spans are imported into it, so
	// one trace covers both sides of the wire. Nil disables coordinator
	// tracing.
	Tracer *obs.Tracer

	// controlLimit and resultLimit bound worker-facing request bodies
	// (0: maxControlBytes and maxResultBytes); tests shrink them.
	controlLimit, resultLimit int64
}

// The coordinator's request body bounds; oversized bodies answer 413.
const (
	// maxControlBytes bounds small worker-facing request bodies:
	// registration, which legitimately carries at most a short JSON
	// document.
	maxControlBytes = 1 << 20
	// maxResultBytes bounds POST …/results bodies. Unit results carry
	// base64 payloads plus shipped spans, so the bound is generous, but
	// not absent: without it one misbehaving worker could balloon
	// coordinator memory with a single request. The input-transfer path
	// (GET …/input) is not governed here; the worker side bounds those
	// downloads with maxTransferBytes.
	maxResultBytes = 64 << 20
)

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 5 * time.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = 500 * time.Millisecond
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = o.HeartbeatTTL / 3
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 200 * time.Millisecond
	}
	if o.controlLimit <= 0 {
		o.controlLimit = maxControlBytes
	}
	if o.resultLimit <= 0 {
		o.resultLimit = maxResultBytes
	}
	return o
}

// LocalOptions returns the aggressive timings in-process loopback
// fleets use: short enough that test- and CLI-sized jobs never stall
// on a detector period, long enough to stay clear of false positives.
func LocalOptions() Options {
	return Options{
		LeaseTTL:       5 * time.Second,
		HeartbeatTTL:   2 * time.Second,
		SweepEvery:     50 * time.Millisecond,
		HeartbeatEvery: 250 * time.Millisecond,
		PollEvery:      5 * time.Millisecond,
	}
}
