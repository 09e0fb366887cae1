package jobs

import (
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
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
	want, err := psa.SerialRefs(traj.RefsOf(in.Ens), psa.Opts{Symmetric: true, Method: spec.hausdorffMethod()})
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
		if res.Leaflet == nil || !leaflet.Equal(res.Leaflet, want) {
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

// packProbe is a serial executor that records, before handing out the
// first task, whether every trajectory of the input is already packed.
type packProbe struct {
	*engine.Serial
	ens      traj.Ensemble
	unpacked []string
}

func (p *packProbe) Map(tasks []engine.Task) ([]any, error) {
	for _, t := range p.ens {
		if !t.IsPacked() {
			p.unpacked = append(p.unpacked, t.Name)
		}
	}
	return p.Serial.Map(tasks)
}

// TestPSARunnerPrePacksPackedKernels checks the runner builds the packed
// representation before the first block runs for both kernels that read
// it (pruned and indexed — an indexed job used to pack inside its first
// timed tasks), and for no other method or the streamed path.
func TestPSARunnerPrePacksPackedKernels(t *testing.T) {
	for _, tc := range []struct {
		method   string
		window   int
		prePacks bool
	}{
		{"pruned", 0, true}, {"indexed", 0, true},
		{"naive", 0, false}, {"early-break", 0, false}, {"indexed", 2, false},
	} {
		spec := validPSASpec()
		spec.Method, spec.MaxResidentFrames = tc.method, tc.window
		spec, in, err := Resolve(spec) // fresh, unpacked trajectories
		if err != nil {
			t.Fatal(err)
		}
		var probe *packProbe
		runner := psaRunner("probe", engineRow{executor: func(_ int, cancel func() bool) engine.Executor {
			probe = &packProbe{Serial: engine.NewSerial(cancel), ens: in.Ens}
			return probe
		}}, nil)
		if _, err := runner(NewRunContext(), spec, in); err != nil {
			t.Fatal(err)
		}
		if tc.prePacks && len(probe.unpacked) != 0 {
			t.Errorf("%s: %v not packed before the first block", tc.method, probe.unpacked)
		}
		if !tc.prePacks && len(probe.unpacked) != len(in.Ens) {
			t.Errorf("%s/window=%d: runner packed %d trajectories it does not read packed",
				tc.method, tc.window, len(in.Ens)-len(probe.unpacked))
		}
	}
}
