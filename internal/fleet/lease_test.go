package fleet

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// FuzzLease throws arbitrary lease JSON at a worker's execute against a
// live coordinator holding three jobs: fj-000001, an in-memory PSA job
// over two trajectories; fj-000002, the same ensemble streamed in
// two-frame windows; and fj-000003, a Leaflet job over 64 atoms. No
// lease may panic the worker, which has no recover on its executor
// loop. A refused lease returns an error, which the loop turns into a
// nack, and carries no payload. An accepted one carries one task of
// valid metrics and a payload the coordinator records. Committed seeds
// in testdata/fuzz are the three leases that once panicked execute: a
// block past the ensemble, a streamed shape at index -1, and rows
// I0 > I1.
func FuzzLease(f *testing.F) {
	for _, l := range []string{
		`{"lease":"l","job":"fj-000001","unit":0,"analysis":"psa","psa":{"i0":0,"i1":1,"j0":1,"j1":2,"method":"pruned"}}`,
		`{"lease":"l","job":"fj-000001","unit":0,"analysis":"psa","psa":{"i0":0,"i1":2,"j0":0,"j1":2,"symmetric":true}}`,
		`{"lease":"l","job":"fj-000002","unit":0,"analysis":"psa","psa":{"i0":0,"i1":1,"j0":1,"j1":2,"window":2,` +
			`"trajs":[{"index":0,"natoms":3,"nframes":5},{"index":1,"natoms":3,"nframes":5}]}}`,
		`{"lease":"l","job":"fj-000002","unit":0,"analysis":"psa","psa":{"i0":0,"i1":1,"j0":1,"j1":2,"window":2,` +
			`"trajs":[{"index":0,"natoms":3,"nframes":5},{"index":1,"natoms":3,"nframes":4611686018427387904}]}}`,
		`{"lease":"l","job":"fj-000002","unit":0,"analysis":"psa","psa":{"i0":4611686018427387904,"i1":4611686018427387905,"j0":0,"j1":1,"window":2,` +
			`"trajs":[{"index":4611686018427387904,"natoms":3,"nframes":5},{"index":0,"natoms":3,"nframes":5}]}}`,
		`{"lease":"l","job":"fj-000003","unit":0,"analysis":"leaflet","leaflet":{"rlo":0,"rhi":32,"clo":32,"chi":64,"cutoff":15,"tree":true}}`,
		`{"lease":"l","job":"fj-000003","unit":0,"analysis":"leaflet","leaflet":{"rlo":0,"rhi":99,"clo":0,"chi":99,"cutoff":15}}`,
	} {
		f.Add([]byte(l))
	}
	c, url := startCoordinator(f, Options{LeaseTTL: time.Minute, HeartbeatTTL: time.Minute, SweepEvery: time.Second})
	ens := testEnsemble(2, 3, 5, 1)
	coords := synth.Bilayer(64, 1).Coords
	for _, submit := range []func() (*Job, error){
		func() (*Job, error) { return c.SubmitPSARefs(traj.RefsOf(ens), 1, psa.Opts{}, nil) },
		func() (*Job, error) { return c.SubmitPSARefs(traj.RefsOf(ens), 1, psa.Opts{MaxResidentFrames: 2}, nil) },
		func() (*Job, error) { return c.SubmitLeaflet(coords, synth.BilayerCutoff, 4, true, nil) },
	} {
		if _, err := submit(); err != nil {
			f.Fatal(err)
		}
	}
	w := &Worker{
		o:    WorkerOptions{MaxTransferBytes: 1 << 20, Logf: func(string, ...any) {}},
		base: url,
		xfer: &http.Client{Timeout: 10 * time.Second},
	}
	w.inputs.init(4)

	f.Fuzz(func(t *testing.T, body []byte) {
		var l Lease
		if json.Unmarshal(body, &l) != nil {
			return
		}
		res, err := w.execute(&l)
		if err != nil {
			if res.ValuesB64 != "" || res.Comps != nil || res.Metrics.Tasks != 0 {
				t.Fatalf("refused lease (%v) carries a payload: %+v", err, res)
			}
			return
		}
		if m := res.Metrics; m.Tasks != 1 || m.Valid() != nil {
			t.Fatalf("accepted lease ships metrics %+v", m)
		}
		// The coordinator's own checks must accept what the worker sends.
		j := &Job{analysis: l.Analysis}
		switch l.Analysis {
		case AnalysisPSA:
			p := l.PSA
			j.blocks = []psa.Block{{I0: p.I0, I1: p.I1, J0: p.J0, J1: p.J1}}
			j.sym, j.results = p.Symmetric, make([]psa.BlockResult, 1)
			if _, err := hausdorff.ParseMethod(p.Method); err != nil {
				t.Fatalf("lease with method %q accepted", p.Method)
			}
		case AnalysisLeaflet:
			j.nAtoms, j.parts = len(coords), make([][]graph.Component, 1)
		}
		if err := j.recordLocked(0, res); err != nil {
			t.Fatalf("accepted lease's result refused by the coordinator: %v", err)
		}
	})
}
