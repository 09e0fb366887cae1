package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentsGolden pins every paper artifact: each experiment of
// the registry, rendered under the machine-independent calibration,
// must match its recorded text in testdata/<id>.txt byte for byte.
// The renders are deterministic (fixed calibration, fixed synth seeds,
// order-independent reductions), so a diff here is a change to the
// paper's figures or tables, never noise.
func TestExperimentsGolden(t *testing.T) {
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := e.Run(FixedCalibration()).WriteText(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s render differs from testdata/%s.txt\n--- got ---\n%s--- want ---\n%s",
					e.ID, e.ID, got.Bytes(), want)
			}
		})
	}
}
