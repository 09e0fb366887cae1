package psa_test

import (
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/pilot"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// Window-staged pilot inputs replay through the streamed kernel: the
// windowed pilot run of staged PSA units must match the serial
// reference exactly while no unit holds more than two windows.
func TestPilotStreamedStagesWindows(t *testing.T) {
	const n, atoms, frames, n1, window = 4, 5, 6, 2, 2
	ens := make(traj.Ensemble, n)
	for i := range ens {
		ens[i] = synth.Walk("t", atoms, frames, 77, uint64(i))
	}
	want, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	sink := &engine.Metrics{}
	p, err := pilot.NewPilot(4, t.TempDir(), sink)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	plan, err := stage.PSA(traj.RefsOf(ens), n1, psa.Opts{
		Symmetric: true, Method: hausdorff.Pruned, MaxResidentFrames: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(plan, nil, stage.Env{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.(*psa.Matrix)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("streamed pilot matrix != serial at %d", i)
		}
	}
	s := sink.Snapshot()
	if s.PeakResidentFrames == 0 || s.PeakResidentFrames > 2*window {
		t.Fatalf("pilot streamed peak resident %d frames, want 1..%d", s.PeakResidentFrames, 2*window)
	}
	if s.BytesStreamed <= 0 {
		t.Fatal("pilot streamed run accounted no streamed bytes")
	}
}
