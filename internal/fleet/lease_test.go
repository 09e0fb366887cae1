package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// FuzzLease throws arbitrary lease JSON at a worker's execute against a
// live coordinator (its incarnation pinned to 00000000) holding three
// jobs: fj-00000000-000001, an in-memory PSA job over two trajectories
// of 3 atoms × 5 frames; fj-00000000-000002, the same ensemble streamed
// in two-frame windows; and fj-00000000-000003, a Leaflet job over 64
// atoms. No lease may panic the unit body: the worker survives one
// (engine.RunTask makes it a failed unit), but a lease the unit's own
// checks let through to a panic is still a hole in them. A refused
// lease returns an error, which the loop turns into a nack, and carries
// no payload. An accepted one carries one task
// of valid metrics and a payload the coordinator's check of that unit
// (stage.Check) accepts. Committed seeds in testdata/fuzz are the three
// leases that once panicked execute, in today's lease shape: a block
// past the ensemble, a block at a negative trajectory index, and rows
// I0 > I1.
func FuzzLease(f *testing.F) {
	const two = `"trajs":[{"natoms":3,"nframes":5},{"natoms":3,"nframes":5}]`
	for _, l := range []string{
		`{"lease":"l","job":"fj-00000000-000001","unit":0,"kind":"psa","desc":{"i0":0,"i1":1,"j0":1,"j1":2,"method":"pruned",` + two + `}}`,
		`{"lease":"l","job":"fj-00000000-000001","unit":0,"kind":"psa","desc":{"i0":0,"i1":2,"j0":0,"j1":2,"symmetric":true,` + two + `}}`,
		`{"lease":"l","job":"fj-00000000-000002","unit":0,"kind":"psa","stream":true,"desc":{"i0":0,"i1":1,"j0":1,"j1":2,"window":2,` + two + `}}`,
		`{"lease":"l","job":"fj-00000000-000002","unit":0,"kind":"psa","stream":true,"desc":{"i0":0,"i1":1,"j0":1,"j1":2,"window":2,` +
			`"trajs":[{"natoms":3,"nframes":5},{"natoms":3,"nframes":4611686018427387904}]}}`,
		`{"lease":"l","job":"fj-00000000-000002","unit":0,"kind":"psa","stream":true,"desc":{"i0":4611686018427387904,"i1":4611686018427387905,"j0":0,"j1":1,"window":2,` + two + `}}`,
		`{"lease":"l","job":"fj-00000000-000003","unit":0,"kind":"leaflet","desc":{"rlo":0,"rhi":32,"clo":32,"chi":64,"cutoff":15,"tree":true,"natoms":64}}`,
		`{"lease":"l","job":"fj-00000000-000003","unit":0,"kind":"leaflet","desc":{"rlo":0,"rhi":99,"clo":0,"chi":99,"cutoff":15,"natoms":64}}`,
	} {
		f.Add([]byte(l))
	}
	c, url := startCoordinator(f, Options{LeaseTTL: time.Minute, HeartbeatTTL: time.Minute, SweepEvery: time.Second})
	c.mu.Lock()
	c.epoch = "00000000"
	c.mu.Unlock()
	refs := traj.RefsOf(testEnsemble(2, 3, 5, 1))
	coords := synth.Bilayer(64, 1).Coords
	for _, plan := range []func() (stage.Plan, error){
		func() (stage.Plan, error) { return stage.PSA(refs, 1, psa.Opts{}) },
		func() (stage.Plan, error) { return stage.PSA(refs, 1, psa.Opts{MaxResidentFrames: 2}) },
		func() (stage.Plan, error) { return stage.Leaflet(coords, synth.BilayerCutoff, 4, 4, true) },
	} {
		p, err := plan()
		if err != nil {
			f.Fatal(err)
		}
		submitPlan(f, c, p, nil)
	}
	w := &Worker{
		o:    WorkerOptions{MaxTransferBytes: 1 << 20, Logf: func(string, ...any) {}},
		base: url,
		xfer: &http.Client{Timeout: 10 * time.Second},
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var l Lease
		if json.Unmarshal(body, &l) != nil {
			return
		}
		res, err := w.execute(&l)
		if pe := (*engine.TaskPanicError)(nil); errors.As(err, &pe) {
			t.Fatalf("lease panicked the unit body: %v", pe)
		}
		if err != nil {
			if res.Payload != nil || res.Metrics.Tasks != 0 {
				t.Fatalf("refused lease (%v) carries a payload: %+v", err, res)
			}
			return
		}
		if m := res.Metrics; m.Tasks != 1 || m.Valid() != nil {
			t.Fatalf("accepted lease ships metrics %+v", m)
		}
		// A coordinator never issues a Leaflet unit over another atom
		// count than its job's, and the check sizes its scratch by it.
		var shape struct {
			NAtoms int `json:"natoms"`
		}
		if l.Kind == "leaflet" && (json.Unmarshal(l.Desc, &shape) != nil || shape.NAtoms != len(coords)) {
			return
		}
		if _, err := stage.Check(stage.Unit{Kind: l.Kind, Desc: l.Desc}, res.Payload, res.Metrics); err != nil {
			t.Fatalf("accepted lease's result refused by the coordinator's check: %v", err)
		}
	})
}
