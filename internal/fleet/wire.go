package fleet

import (
	"encoding/json"

	"mdtask/internal/engine"
	"mdtask/internal/obs"
)

// The wire types of the worker protocol. A lease carries a staged
// unit's kind and JSON description (internal/stage); input blobs and
// result payloads travel as bytes the unit kinds encode — exact
// little-endian float64 bit patterns for every coordinate and distance
// (base64 inside JSON), so a fleet run is bit-identical to a serial
// one: decimal formatting never touches a float.

// RegisterRequest is the body of POST /v1/workers.
type RegisterRequest struct {
	// Name is a display name for logs and stats (default: anonymous).
	Name string `json:"name,omitempty"`
}

// RegisterResponse tells a new worker its identity and cadence.
type RegisterResponse struct {
	ID string `json:"id"`
	// LeaseTTLMillis is how long the worker may hold a unit.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// HeartbeatMillis is how often the worker must check in.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// PollMillis is how long to sleep when a lease request returns 204.
	PollMillis int64 `json:"poll_ms"`
}

// Lease grants one work unit to one worker until a deadline.
type Lease struct {
	Lease string `json:"lease"`
	Job   string `json:"job"`
	Unit  int    `json:"unit"`
	// Kind names the staged unit kind whose body runs the unit
	// (stage.Exec), and Desc is the unit's description, handed to the
	// body verbatim.
	Kind string          `json:"kind"`
	Desc json.RawMessage `json:"desc,omitempty"`
	// Stream marks a unit whose inputs are streamed windows: the worker
	// fetches each on demand and caches none, so at most two windows of
	// frames are resident. Other units' inputs are cached per job.
	Stream bool `json:"stream,omitempty"`
	// DeadlineMillis is the revocation time as Unix milliseconds
	// (informative; the coordinator's clock is authoritative).
	DeadlineMillis int64 `json:"deadline_ms"`
	// TraceParent is the W3C trace context of the coordinator-side
	// lease span: a tracing worker parents its kernel span under it, so
	// the unit's cross-process execution lands in the submitting job's
	// trace (empty when coordinator tracing is off).
	TraceParent string `json:"traceparent,omitempty"`
}

// UnitResult is the body of POST /v1/workers/{id}/results: one
// completed unit plus its engine accounting.
type UnitResult struct {
	Lease string `json:"lease"`
	Job   string `json:"job"`
	Unit  int    `json:"unit"`

	// Failed marks a failure nack: the worker could not execute the
	// unit (kernel error, input fetch failure, injected fault) and is
	// handing the lease back so the coordinator requeues the unit NOW.
	// Without the nack a failed unit on a live worker would hang the
	// job: heartbeats renew every held lease, so the expiry that was
	// supposed to reclaim the unit never fires. Error carries the
	// worker-side reason for logs and traces; the payload and metrics
	// are empty on a nack.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`

	// Payload is what the unit body staged out (base64 in JSON); the
	// coordinator checks it against the unit's description before
	// recording it.
	Payload []byte `json:"payload,omitempty"`

	// Metrics is the unit's engine accounting: its task time, and for a
	// PSA block the kernel's frame-pair, node and streaming counters. The
	// coordinator checks it (Snapshot.Valid) and folds it into the job's
	// sink.
	Metrics engine.Snapshot `json:"metrics"`
	// Spans carries the worker-side spans of the unit (the kernel span
	// and its children), finished and exported; the coordinator imports
	// them into its tracer so one job trace covers both processes.
	Spans []obs.WireSpan `json:"spans,omitempty"`
}

// StatsView is the JSON body of GET /v1/fleet.
type StatsView struct {
	Workers        int   `json:"workers"`
	ActiveLeases   int   `json:"active_leases"`
	JobsActive     int   `json:"jobs_active"`
	UnitsCompleted int64 `json:"units_completed"`
	// Requeues counts units revoked and rescheduled (lease expiry,
	// worker death, or a failure nack); > 0 after a mid-job worker kill.
	Requeues int64 `json:"requeues"`
	// UnitFailures counts failure nacks: units a live worker executed
	// and handed back with an error (each also counts as a requeue).
	UnitFailures int64 `json:"unit_failures"`
	WorkersSeen  int64 `json:"workers_seen"`
	WorkersLost  int64 `json:"workers_lost"`
	// WorkerList details the currently registered workers.
	WorkerList []WorkerView `json:"worker_list,omitempty"`
}

// WorkerView is one registered worker in the stats view.
type WorkerView struct {
	ID           string `json:"id"`
	Name         string `json:"name,omitempty"`
	ActiveLeases int    `json:"active_leases"`
	LastSeenMS   int64  `json:"last_seen_ms_ago"`
}
