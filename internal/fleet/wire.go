package fleet

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/obs"
	"mdtask/internal/traj"
)

// The wire types of the worker protocol. Work-unit geometry and
// parameters travel as JSON; coordinate and distance payloads travel as
// exact little-endian float64 bit patterns (base64 in JSON, raw bytes
// for the input endpoint), so a fleet run is bit-identical to a serial
// one — decimal formatting never touches a float.

// Analysis names carried in leases (mirrors the jobs layer without
// importing it).
const (
	AnalysisPSA     = "psa"
	AnalysisLeaflet = "leaflet"
)

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

// PSAUnit is one block of the PSA distance-matrix schedule.
type PSAUnit struct {
	I0 int `json:"i0"`
	I1 int `json:"i1"`
	J0 int `json:"j0"`
	J1 int `json:"j1"`
	// Symmetric marks the symmetry-aware schedule (diagonal blocks
	// compute only their strict upper triangle).
	Symmetric bool `json:"symmetric,omitempty"`
	// Method is the Hausdorff kernel: naive | early-break | pruned |
	// indexed.
	Method string `json:"method,omitempty"`
	// Window, when positive, selects the streamed kernel: the worker
	// fetches the block's trajectories window by window (at most Window
	// frames each, GET …/input?traj=I&win=K) instead of downloading the
	// whole ensemble, holding at most two windows of frames resident.
	Window int `json:"window,omitempty"`
	// Trajs carries the shapes of the trajectories the block reads —
	// what a streamed worker needs to rebuild handles without fetching
	// any frame data.
	Trajs []PSATrajShape `json:"trajs,omitempty"`
}

// PSATrajShape is the identity and shape of one streamed trajectory.
type PSATrajShape struct {
	Index   int    `json:"index"`
	Name    string `json:"name,omitempty"`
	NAtoms  int    `json:"natoms"`
	NFrames int    `json:"nframes"`
}

// LeafletUnit is one 2-D tile of the Leaflet Finder comparison space.
type LeafletUnit struct {
	RLo int `json:"rlo"`
	RHi int `json:"rhi"`
	CLo int `json:"clo"`
	CHi int `json:"chi"`
	// Cutoff is the neighbor cutoff in Å.
	Cutoff float64 `json:"cutoff"`
	// Tree selects BallTree edge discovery (Approach 4) over pairwise
	// distances.
	Tree bool `json:"tree,omitempty"`
}

// Lease grants one work unit to one worker until a deadline.
type Lease struct {
	Lease    string `json:"lease"`
	Job      string `json:"job"`
	Unit     int    `json:"unit"`
	Analysis string `json:"analysis"`
	// DeadlineMillis is the revocation time as Unix milliseconds
	// (informative; the coordinator's clock is authoritative).
	DeadlineMillis int64 `json:"deadline_ms"`
	// TraceParent is the W3C trace context of the coordinator-side
	// lease span: a tracing worker parents its kernel span under it, so
	// the unit's cross-process execution lands in the submitting job's
	// trace (empty when coordinator tracing is off).
	TraceParent string `json:"traceparent,omitempty"`

	PSA     *PSAUnit     `json:"psa,omitempty"`
	Leaflet *LeafletUnit `json:"leaflet,omitempty"`
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
	// worker-side reason for logs and traces; the payload fields below
	// are all empty on a nack.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`

	// ValuesB64 carries a PSA block's distances: base64 of packed
	// little-endian float64s, in ComputeBlockRefs' iteration order.
	ValuesB64 string `json:"values_b64,omitempty"`

	// Comps carries a Leaflet tile's partial connected components.
	Comps []graph.Component `json:"comps,omitempty"`
	// Edges is the tile's discovered edge count.
	Edges int64 `json:"edges,omitempty"`

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

// PackFloats encodes float64 values as base64 little-endian bit
// patterns — exact, whatever the values.
func PackFloats(vals []float64) string {
	return base64.StdEncoding.EncodeToString(linalg.AppendFloats(make([]byte, 0, 8*len(vals)), vals))
}

// UnpackFloats decodes a PackFloats payload.
func UnpackFloats(s string) ([]float64, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("fleet: float payload: %w", err)
	}
	return linalg.DecodeFloats(raw)
}

// Input payload format (GET /v1/fleet/jobs/{id}/input), little endian:
//
//	tag 'P': uint32 count, then per trajectory uint64 blobLen + MDT blob
//	tag 'L': uint32 nAtoms, then nAtoms × 3 float64 coordinates

const (
	inputTagPSA     = 'P'
	inputTagLeaflet = 'L'
)

// EncodeEnsemble serializes a PSA input ensemble.
func EncodeEnsemble(ens traj.Ensemble) ([]byte, error) {
	out := []byte{inputTagPSA}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ens)))
	for _, t := range ens {
		blob, err := traj.EncodeMDT(t, 8)
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// DecodeEnsemble deserializes a PSA input payload. The count in the
// header is untrusted: the ensemble's capacity is bounded by the
// payload, since every trajectory needs at least its 8-byte length
// prefix.
func DecodeEnsemble(b []byte) (traj.Ensemble, error) {
	if len(b) < 5 || b[0] != inputTagPSA {
		return nil, fmt.Errorf("fleet: not a PSA input payload")
	}
	count := int(binary.LittleEndian.Uint32(b[1:]))
	b = b[5:]
	ens := make(traj.Ensemble, 0, min(count, len(b)/8))
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("fleet: truncated PSA input payload (trajectory %d)", i)
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < n {
			return nil, fmt.Errorf("fleet: truncated PSA input payload (trajectory %d)", i)
		}
		t, err := traj.DecodeMDT(b[:n])
		if err != nil {
			return nil, fmt.Errorf("fleet: trajectory %d: %w", i, err)
		}
		ens = append(ens, t)
		b = b[n:]
	}
	return ens, nil
}

// EncodeCoords serializes a Leaflet Finder input coordinate set.
func EncodeCoords(coords []linalg.Vec3) []byte {
	out := make([]byte, 0, 5+len(coords)*24)
	out = append(out, inputTagLeaflet)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(coords)))
	return linalg.AppendVec3s(out, coords)
}

// DecodeCoords deserializes a Leaflet Finder input payload.
func DecodeCoords(b []byte) ([]linalg.Vec3, error) {
	if len(b) < 5 || b[0] != inputTagLeaflet {
		return nil, fmt.Errorf("fleet: not a Leaflet input payload")
	}
	n := int(binary.LittleEndian.Uint32(b[1:]))
	if len(b)-5 != n*24 {
		return nil, fmt.Errorf("fleet: Leaflet input payload has %d bytes, want %d", len(b)-5, n*24)
	}
	return linalg.DecodeVec3s(b[5:])
}
