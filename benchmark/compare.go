package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a -out file: one runRecord per line.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints, for every workload × end-to-end metric, both
// sides' medians over their runs, how much worse side b is as a share
// of a's median, and the bound. A row is "worse" when that share
// exceeds the bound, "unresolved" when it does not but either side's
// own quartile spread does (the runs cannot tell), "ok" otherwise. The
// exit code is 1 if any row is worse or b failed more jobs than a on
// any workload, else 0.
func compareFiles(w io.Writer, ct *contract, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b []runRecord
		if b, err = readRecords(pathB); err == nil {
			return compareRuns(w, ct, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareRuns(w io.Writer, ct *contract, a, b []runRecord) int {
	// values[side][workload][metric] over the untraced runs of a side.
	collect := func(recs []runRecord) (map[string]map[string][]float64, map[string]int) {
		vals, failed := make(map[string]map[string][]float64), make(map[string]int)
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
			failed[r.Workload] += r.Failed
		}
		return vals, failed
	}
	va, fa := collect(a)
	vb, fb := collect(b)
	status := 0
	fmt.Fprintf(w, "%-13s %-22s %3s %12s %3s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "nA", "median A", "nB", "median B", "B worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range ct.Workloads {
		if va[wl.Name] == nil || vb[wl.Name] == nil {
			continue
		}
		for _, d := range ct.EndToEnd {
			xa, xb := va[wl.Name][d.Name], vb[wl.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "worse"
				status = 1
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-22s %3d %12.6g %3d %12.6g %+8.1f%% %6.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, d.Name, len(xa), ma, len(xb), mb, 100*worse, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
		verdict := "ok"
		if fb[wl.Name] > fa[wl.Name] {
			verdict = "worse"
			status = 1
		}
		fmt.Fprintf(w, "%-13s %-22s %3s %12d %3s %12d %9s %7s %8s %8s  %s\n",
			wl.Name, "failed jobs", "", fa[wl.Name], "", fb[wl.Name], "", "none", "", "", verdict)
	}
	return status
}
