package jobs

import (
	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
)

// Result is the output of one analysis job: exactly one of the fields
// is set, matching the job's analysis. Results stored in the cache are
// shared between jobs and must be treated as immutable.
type Result struct {
	// Matrix is the PSA all-pairs Hausdorff distance matrix.
	Matrix *psa.Matrix `json:"matrix,omitempty"`
	// Leaflet is the Leaflet Finder assignment.
	Leaflet *leaflet.Result `json:"leaflet,omitempty"`
}

// resultBytes estimates the retained payload size of a job result, for
// the store's byte-budget accounting.
func resultBytes(r *Result) int64 {
	var n int64 = 64
	if r == nil {
		return n
	}
	if r.Matrix != nil {
		n += int64(len(r.Matrix.Data)) * 8
	}
	if r.Leaflet != nil {
		n += int64(len(r.Leaflet.Labels)) * 4
		for _, c := range r.Leaflet.Components {
			n += int64(len(c)) * 4
		}
	}
	return n
}
