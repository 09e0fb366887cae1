package main

import (
	"strings"
	"testing"
)

func baselineFixture() benchFile {
	return benchFile{
		Benchmark: "psa-hausdorff-kernel",
		Ensembles: []benchEnsemble{{
			Kind: "walk",
			Methods: []benchMethod{
				{Method: "naive", PairsEvaluated: 1000, PairsPruned: 0, PairsAbandoned: 0, PrunedFraction: 0},
				{Method: "pruned", PairsEvaluated: 100, PairsPruned: 800, PairsAbandoned: 100, PrunedFraction: 0.9},
				{Method: "indexed", PairsEvaluated: 90, PairsPruned: 810, PairsAbandoned: 100, PrunedFraction: 0.91, NodesVisited: 40, NodesPruned: 10},
			},
		}},
	}
}

func TestGatePassesIdenticalRun(t *testing.T) {
	v, imp := gate(baselineFixture(), baselineFixture(), 0.02)
	if len(v) != 0 || len(imp) != 0 {
		t.Fatalf("identical run: violations=%v improvements=%v", v, imp)
	}
}

func TestGateCatchesMoreEvaluatedPairs(t *testing.T) {
	cur := baselineFixture()
	// 100 -> 150 evaluated with pruned shrinking to keep the total:
	// a genuine efficiency regression.
	cur.Ensembles[0].Methods[1].PairsEvaluated = 150
	cur.Ensembles[0].Methods[1].PairsPruned = 750
	cur.Ensembles[0].Methods[1].PrunedFraction = 0.85
	v, _ := gate(baselineFixture(), cur, 0.02)
	if len(v) != 3 {
		t.Fatalf("violations = %v, want evaluated-pairs, evaluated+abandoned and pruned-fraction failures", v)
	}
	if !strings.Contains(v[0], "evaluated pairs") || !strings.Contains(v[1], "evaluated+abandoned pairs") || !strings.Contains(v[2], "pruned fraction") {
		t.Fatalf("violations = %v", v)
	}
}

// Abandoned evaluations touch atoms too, and the pruned fraction counts
// them as pruned: a change that completes a few evaluations fewer and
// abandons hundreds more passes every other rule.
func TestGateCatchesMoreAbandonedPairs(t *testing.T) {
	cur := baselineFixture()
	cur.Ensembles[0].Methods[1].PairsEvaluated = 95
	cur.Ensembles[0].Methods[1].PairsPruned = 600
	cur.Ensembles[0].Methods[1].PairsAbandoned = 305
	cur.Ensembles[0].Methods[1].PrunedFraction = 0.905
	cur.Ensembles[0].Methods[2].PairsEvaluated = 85 // indexed keeps its strict lead
	cur.Ensembles[0].Methods[2].PairsPruned = 815
	v, imp := gate(baselineFixture(), cur, 0.02)
	if len(v) != 1 || !strings.Contains(v[0], "walk/pruned: evaluated+abandoned pairs 400 > 204") {
		t.Fatalf("violations = %v, want one evaluated+abandoned failure", v)
	}
	if len(imp) != 2 {
		t.Fatalf("improvements = %v, want the two evaluated-pairs notes", imp)
	}
	// Inside the tolerance: 200 -> 204.
	cur.Ensembles[0].Methods[1].PairsPruned, cur.Ensembles[0].Methods[1].PairsAbandoned = 796, 109
	if v, _ := gate(baselineFixture(), cur, 0.02); len(v) != 0 {
		t.Fatalf("within-tolerance run tripped the gate: %v", v)
	}
}

func TestGateCatchesScheduleDrift(t *testing.T) {
	cur := baselineFixture()
	cur.Ensembles[0].Methods[0].PairsEvaluated = 900 // total 1000 -> 900
	v, _ := gate(baselineFixture(), cur, 0.02)
	if len(v) != 1 || !strings.Contains(v[0], "scheduled pairs changed") {
		t.Fatalf("violations = %v, want schedule-drift failure", v)
	}
}

func TestGateCatchesMissingMeasurement(t *testing.T) {
	cur := baselineFixture()
	cur.Ensembles[0].Methods = cur.Ensembles[0].Methods[:2]
	v, _ := gate(baselineFixture(), cur, 0.02)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want missing-measurement failure", v)
	}
}

// The indexed kernel must complete strictly fewer full evaluations
// than pruned on every ensemble of the current run — an absolute rule,
// so it trips even when the baseline records the same (bad) numbers.
func TestGateCatchesIndexedEvalParity(t *testing.T) {
	cur := baselineFixture()
	cur.Ensembles[0].Methods[2].PairsEvaluated = 100 // == pruned's
	cur.Ensembles[0].Methods[2].PairsPruned = 800
	v, _ := gate(cur, cur, 0.02)
	if len(v) != 1 || !strings.Contains(v[0], "strictly fewer") {
		t.Fatalf("violations = %v, want indexed-vs-pruned failure", v)
	}
}

func TestGateToleratesSlackAndReportsImprovements(t *testing.T) {
	cur := baselineFixture()
	// +1% evaluated on pruned: inside the 2% tolerance.
	cur.Ensembles[0].Methods[1].PairsEvaluated = 101
	cur.Ensembles[0].Methods[1].PairsPruned = 799
	if v, _ := gate(baselineFixture(), cur, 0.02); len(v) != 0 {
		t.Fatalf("within-tolerance run tripped the gate: %v", v)
	}
	// Fewer evaluated pairs is an improvement, not a violation —
	// indexed improves along with pruned to keep its strict lead.
	cur.Ensembles[0].Methods[1].PairsEvaluated = 50
	cur.Ensembles[0].Methods[1].PairsPruned = 850
	cur.Ensembles[0].Methods[1].PrunedFraction = 0.95
	cur.Ensembles[0].Methods[2].PairsEvaluated = 40
	cur.Ensembles[0].Methods[2].PairsPruned = 860
	cur.Ensembles[0].Methods[2].PrunedFraction = 0.96
	v, imp := gate(baselineFixture(), cur, 0.02)
	if len(v) != 0 || len(imp) != 2 {
		t.Fatalf("improvement run: violations=%v improvements=%v", v, imp)
	}
}

func streamedFixture() benchFile {
	f := baselineFixture()
	f.Streamed = []benchStreamed{{
		Kind: "walk", Window: 16,
		PairsEvaluated: 100, PairsPruned: 800, PairsAbandoned: 100,
		WindowsDecoded: 50, BytesStreamed: 5000,
		InMemEvaluated: 40, InMemAbandoned: 160,
	}}
	return f
}

func TestGateStreamedSection(t *testing.T) {
	if v, _ := gate(streamedFixture(), streamedFixture(), 0.02); len(v) != 0 {
		t.Fatalf("identical streamed run tripped the gate: %v", v)
	}
	// A baseline without the section gates nothing.
	if v, _ := gate(baselineFixture(), streamedFixture(), 0.02); len(v) != 0 {
		t.Fatalf("new streamed section gated against a baseline without one: %v", v)
	}

	// More windows decoded and more bytes streamed: read amplification
	// is a regression even when the pair counters hold.
	cur := streamedFixture()
	cur.Streamed[0].WindowsDecoded = 60
	cur.Streamed[0].BytesStreamed = 6000
	v, _ := gate(streamedFixture(), cur, 0.02)
	if len(v) != 2 || !strings.Contains(v[0], "windows decoded") || !strings.Contains(v[1], "bytes streamed") {
		t.Fatalf("violations = %v, want windows-decoded and bytes-streamed failures", v)
	}

	// Abandons turned into evaluations keep evaluated+abandoned but
	// raise evaluated.
	cur = streamedFixture()
	cur.Streamed[0].PairsEvaluated, cur.Streamed[0].PairsAbandoned = 150, 50
	v, _ = gate(streamedFixture(), cur, 0.02)
	if len(v) != 1 || !strings.Contains(v[0], "evaluated pairs") {
		t.Fatalf("violations = %v, want an evaluated-pairs failure", v)
	}

	// Drift and disappearance.
	cur = streamedFixture()
	cur.Streamed[0].PairsPruned = 700
	if v, _ := gate(streamedFixture(), cur, 0.02); len(v) != 1 || !strings.Contains(v[0], "scheduled pairs changed") {
		t.Fatalf("violations = %v, want schedule drift", v)
	}
	cur.Streamed = nil
	if v, _ := gate(streamedFixture(), cur, 0.02); len(v) != 1 || !strings.Contains(v[0], "missing from current run") {
		t.Fatalf("violations = %v, want a missing-measurement failure", v)
	}
}
