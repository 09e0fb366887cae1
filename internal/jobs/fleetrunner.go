package jobs

import (
	"mdtask/internal/blockstore"
	"mdtask/internal/fleet"
	"mdtask/internal/leaflet"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
)

// The fleet bodies bridge the jobs layer to the distributed
// coordinator/worker engine. Bound to a shared coordinator (the one
// cmd/mdserver embeds and cmd/mdworker processes pull from), a job's
// blocks fan out across whatever workers are registered; with no
// coordinator bound (the CLI one-shot path), each job boots an
// ephemeral in-process loopback fleet sized by the spec's parallelism,
// so `-engine fleet` works standalone while still exercising the full
// wire protocol.

// fleetCoordinator resolves the coordinator a fleet job runs on,
// returning a cleanup for the ephemeral case. A shared coordinator
// already carries the server's block store; an ephemeral loopback
// fleet is handed the scheduler's store so even one-shot fleet jobs
// hit and feed the same cache as every other engine.
func fleetCoordinator(shared *fleet.Coordinator, workers int, store *blockstore.Store, tracer *obs.Tracer) (*fleet.Coordinator, func(), error) {
	if shared != nil {
		return shared, func() {}, nil
	}
	lo := fleet.LocalOptions()
	lo.BlockStore = store
	lo.Tracer = tracer
	lf, err := fleet.StartLocal(workers, lo)
	if err != nil {
		return nil, nil, err
	}
	return lf.C, lf.Close, nil
}

// psaFleet is the fleet engine's PSA body. Cancellation and metrics are
// coordinator-side concerns: of opts the coordinator reads only what
// changes the computed values' schedule, the streaming window, and the
// trace parent its fleet.job span nests under.
func psaFleet(shared *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, opts psa.Opts) (*psa.Matrix, error) {
	c, cleanup, err := fleetCoordinator(shared, spec.ranks(), rc.BlockStore(), rc.Tracer())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	job, err := c.SubmitPSARefs(in.Refs, spec.groupSize(len(in.Refs)), opts, rc.Metrics())
	if err != nil {
		return nil, err
	}
	defer c.Drop(job)
	if err := job.Wait(rc.Cancelled); err != nil {
		return nil, err // an abort maps to ErrCancelled in the runner
	}
	return job.Matrix(), nil
}

// leafletFleet is the fleet engine's Leaflet Finder body. All
// approaches run the Parallel-CC dataflow over the 2-D tiling (only
// components cross the wire); the tree approach selects BallTree edge
// discovery, the rest pairwise distances.
func leafletFleet(shared *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, approach leaflet.Approach, parent obs.SpanContext) (*leaflet.Result, error) {
	c, cleanup, err := fleetCoordinator(shared, spec.ranks(), rc.BlockStore(), rc.Tracer())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	job, err := c.SubmitLeaflet(in.Coords, spec.Cutoff, spec.Tasks, approach == leaflet.TreeSearch, rc.Metrics(), parent)
	if err != nil {
		return nil, err
	}
	defer c.Drop(job)
	if err := job.Wait(rc.Cancelled); err != nil {
		return nil, err // an abort maps to ErrCancelled in the runner
	}
	return job.Leaflet(), nil
}
