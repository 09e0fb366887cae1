package jobs

import (
	"slices"
	"testing"

	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
)

// TestPSARunnersMatchSerial checks every engine's PSA runner produces a
// matrix bit-identical to the serial reference over the same input.
func TestPSARunnersMatchSerial(t *testing.T) {
	spec, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := psa.SerialRefs(in.Refs, psa.Opts{Symmetric: true, Method: spec.hausdorffMethod()})
	if err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	for _, eng := range Engines {
		s := spec
		s.Engine = eng
		_, res, metrics, err := RunLocal(reg, s)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.Matrix == nil || res.Matrix.N != want.N {
			t.Fatalf("%s: bad matrix %+v", eng, res.Matrix)
		}
		for i := range want.Data {
			if res.Matrix.Data[i] != want.Data[i] {
				t.Fatalf("%s: matrix differs from serial at %d", eng, i)
			}
		}
		if metrics.Tasks == 0 {
			t.Errorf("%s: no engine tasks recorded", eng)
		}
	}
}

// TestLeafletRunnersMatchSerial checks every engine's Leaflet Finder
// runner partitions the atoms identically to the serial reference.
func TestLeafletRunnersMatchSerial(t *testing.T) {
	spec, err := validLeafletSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := leaflet.Serial(in.Coords, spec.Cutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components, want 2", len(want.Components))
	}
	reg := DefaultRegistry()
	for _, eng := range Engines {
		s := spec
		s.Engine = eng
		_, res, _, err := RunLocal(reg, s)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.Leaflet == nil || !slices.Equal(res.Leaflet.Labels, want.Labels) {
			t.Fatalf("%s: assignment differs from serial", eng)
		}
	}
}

// TestRunLocalFullMatrix checks the paper-faithful full schedule stays
// reachable through the registry and agrees with the symmetric one.
func TestRunLocalFullMatrix(t *testing.T) {
	spec := validPSASpec()
	spec.Engine = EngineSerial
	_, sym, _, err := RunLocal(DefaultRegistry(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.FullMatrix = true
	_, full, _, err := RunLocal(DefaultRegistry(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sym.Matrix.Data {
		if sym.Matrix.Data[i] != full.Matrix.Data[i] {
			t.Fatalf("symmetric and full schedules disagree at %d", i)
		}
	}
}

// TestRunLocalErrors checks spec and lookup failures surface.
func TestRunLocalErrors(t *testing.T) {
	if _, _, _, err := RunLocal(DefaultRegistry(), Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, _, _, err := RunLocal(NewRegistry(), validPSASpec()); err == nil {
		t.Error("missing runner accepted")
	}
}

// TestRunContextCancelPreemptsRun checks a pre-cancelled context makes
// runners return ErrCancelled without publishing a result.
func TestRunContextCancelPreemptsRun(t *testing.T) {
	spec, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range Engines {
		runner, _ := DefaultRegistry().Lookup(RunnerName(AnalysisPSA, eng))
		rc := NewRunContext()
		rc.Cancel()
		res, err := runner(rc, spec, in)
		if err != ErrCancelled || res != nil {
			t.Errorf("%s: cancelled run returned %v, %v", eng, res, err)
		}
	}
}

// TestPSARunnerPrePacksPackedKernels checks that Resolve packs every
// resident member of an ensemble, so no kernel task pays for packing:
// every kernel reads packed rows, and a streamed job's in-memory refs
// slice their windows out of them too. Generated members are resident
// whatever the window; a directory's are when it is not streamed.
func TestPSARunnerPrePacksPackedKernels(t *testing.T) {
	psaDir, _ := writeFileInputs(t)
	synthSpec := validPSASpec()
	for _, tc := range []struct {
		spec   Spec
		window int
	}{
		{synthSpec, 0}, {synthSpec, 2},
		{Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Path: psaDir}, 0},
	} {
		tc.spec.MaxResidentFrames = tc.window
		_, in, err := Resolve(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range in.Refs {
			tr, err := r.Load() // a memory-backed ref's own trajectory
			if err != nil {
				t.Fatal(err)
			}
			if !tr.IsPacked() {
				t.Errorf("synth=%t window=%d: %s not packed by Resolve", tc.spec.Synth != nil, tc.window, r.Name())
			}
		}
	}
}
