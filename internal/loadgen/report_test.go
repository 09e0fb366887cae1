package loadgen

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReport(t *testing.T) {
	rep := &Report{
		Benchmark: "mdserver-load",
		Scenarios: []ScenarioReport{
			{
				Scenario: "resubmit-storm",
				Invariants: []Invariant{
					{Name: "zero-lost-jobs", OK: true, Detail: "0 accepted jobs lost"},
					{Name: "submitted-counter-exact", OK: false, Detail: "server counted 23, harness had 24"},
				},
			},
			{Scenario: "fleet-fanout", Skipped: true, SkipReason: "no fleet workers registered"},
		},
	}
	var buf bytes.Buffer
	WriteReport(&buf, rep)
	out := buf.String()
	for _, want := range []string{"fleet-fanout (skipped: no fleet workers registered)", "invariants:",
		"[ok  ] resubmit-storm/zero-lost-jobs — 0 accepted jobs lost",
		"[FAIL] resubmit-storm/submitted-counter-exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
