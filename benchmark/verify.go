package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// resultDoc is GET /v1/jobs/{id}/result as the wire gives it.
type resultDoc struct {
	Matrix *struct {
		N    int
		Data []float64
	} `json:"matrix"`
	Leaflet *struct {
		Labels     []int32
		Components [][]int32
	} `json:"leaflet"`
}

// verify checks every outcome with the clock stopped, records the
// reason on the ones it rejects and returns how many failed. All jobs
// get the structural checks (a symmetric N×N matrix with a zero
// diagonal; two leaflets of the generator's ground-truth sizes; a
// resubmitted spec returning the bytes of its first run). refChecks of
// them, spread evenly over the run, are also recomputed in-process on
// the serial engine with the naive kernel and must match bit for bit.
func verify(outs []outcome, refChecks int) int {
	first := make(map[[2]int]*outcome, len(outs))
	for i := range outs {
		first[[2]int{outs[i].Stream, outs[i].Index}] = &outs[i]
	}
	every := len(outs)
	if refChecks > 0 {
		every = (len(outs) + refChecks - 1) / refChecks
	}
	failed := 0
	for i := range outs {
		o := &outs[i]
		o.Failure = check(o, first, every > 0 && i%every == 0)
		if o.Failure != "" {
			failed++
		}
	}
	return failed
}

func check(o *outcome, first map[[2]int]*outcome, recompute bool) string {
	if o.Err != nil {
		return o.Err.Error()
	}
	var doc resultDoc
	if err := json.Unmarshal(o.Body, &doc); err != nil {
		return "undecodable result: " + err.Error()
	}
	switch o.Job.Analysis {
	case "psa":
		m := doc.Matrix
		if m == nil || m.N != o.Job.N || len(m.Data) != m.N*m.N {
			return fmt.Sprintf("result is not a %d×%d matrix", o.Job.N, o.Job.N)
		}
		for i := 0; i < m.N; i++ {
			if m.Data[i*m.N+i] != 0 {
				return fmt.Sprintf("non-zero diagonal at %d", i)
			}
			for j := i + 1; j < m.N; j++ {
				if math.Float64bits(m.Data[i*m.N+j]) != math.Float64bits(m.Data[j*m.N+i]) {
					return fmt.Sprintf("matrix not symmetric at (%d,%d)", i, j)
				}
			}
		}
	case "leaflet":
		l := doc.Leaflet
		lower, upper := leafletTruth(o.Job.N, o.Job.Seed)
		if l == nil || len(l.Labels) != o.Job.N || len(l.Components) != 2 ||
			len(l.Components[0])+len(l.Components[1]) != o.Job.N ||
			(len(l.Components[0]) != lower && len(l.Components[0]) != upper) {
			return fmt.Sprintf("result is not two leaflets of %d and %d atoms", lower, upper)
		}
	}
	if o.Job.SameAs >= 0 {
		orig := first[[2]int{o.Stream, o.Job.SameAs}]
		if orig == nil || !bytes.Equal(orig.Body, o.Body) {
			return "resubmission did not return the bytes of its first run"
		}
	}
	if recompute {
		ref, err := referenceResult(o.Job.Body)
		if err != nil {
			return "reference run: " + err.Error()
		}
		if !sameResult(&doc, ref) {
			return "result differs from the serial/naive reference"
		}
	}
	return ""
}

// sameResult compares matrices bit for bit and leaflet labelings
// exactly.
func sameResult(a, b *resultDoc) bool {
	switch {
	case a.Matrix != nil && b.Matrix != nil:
		if a.Matrix.N != b.Matrix.N || len(a.Matrix.Data) != len(b.Matrix.Data) {
			return false
		}
		for i, v := range a.Matrix.Data {
			if math.Float64bits(v) != math.Float64bits(b.Matrix.Data[i]) {
				return false
			}
		}
		return true
	case a.Leaflet != nil && b.Leaflet != nil:
		if len(a.Leaflet.Labels) != len(b.Leaflet.Labels) {
			return false
		}
		for i, v := range a.Leaflet.Labels {
			if v != b.Leaflet.Labels[i] {
				return false
			}
		}
		return true
	}
	return false
}
