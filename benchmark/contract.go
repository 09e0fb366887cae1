package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. Bound is set only on
// end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json, the single definition of the workload and
// metric names: the run reports exactly the metrics it lists, with the
// units it gives, and -compare takes its bounds from it.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// measured is one reported metric value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps computed values onto the metrics the contract lists. A
// listed metric without a finite value is an error: a run never
// silently drops a name later comparisons depend on.
func report(defs []metricDef, vals map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (got %v, present=%v)", d.Name, v, ok)
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle of xs (mean of the two middles for even n),
// 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation
// between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), the spread the
// acceptance check uses. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	med := median(xs)
	if m < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}
