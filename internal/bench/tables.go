package bench

import (
	"fmt"

	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/rdd"
	"mdtask/internal/synth"
)

// frameworks are the columns of Tables 1 and 3, in the paper's order.
var frameworks = []string{"RADICAL-Pilot", "Spark", "Dask"}

// table1 is the paper's Table 1 (framework comparison): one row per
// property, one cell per framework.
var table1 = [][4]string{
	{"Languages", "Python", "Java, Scala, Python, R", "Python"},
	{"Task Abstraction", "Task (Compute-Unit)", "Map-Task", "Delayed"},
	{"Functional Abstraction", "-", "RDD API", "Bag"},
	{"Higher-Level Abstractions", "EnTK", "Dataframe, ML Pipeline, MLlib", "Dataframe, Arrays for block computations"},
	{"Resource Management", "Pilot-Job", "Spark Execution Engines", "Dask Distributed Scheduler"},
	{"Scheduler", "Individual Tasks", "Stage-oriented DAG", "DAG"},
	{"Shuffle", "-", "hash/sort-based shuffle", "hash/sort-based shuffle"},
	{"Limitations", "no shuffle, filesystem-based communication",
		"high overheads for Python tasks (serialization)",
		"Dask Array can not deal with dynamic output shapes"},
}

// Tab1 renders the paper's Table 1 (framework comparison).
func Tab1(cal *Calibration) *Table {
	t := &Table{
		ID:     "tab1",
		Title:  "Frameworks comparison (paper Table 1)",
		Header: append([]string{"property"}, frameworks...),
	}
	for _, row := range table1 {
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	return t
}

// tab2Atoms sizes the real runs backing Table 2's measured columns.
const tab2Atoms = 8192

// Tab2 regenerates Table 2 (MapReduce operations per Leaflet Finder
// approach), augmenting the paper's structural description with
// data-movement volumes measured from real runs of the four approaches
// on the Spark-like engine.
func Tab2(cal *Calibration) *Table {
	t := &Table{
		ID:    "tab2",
		Title: fmt.Sprintf("Leaflet Finder MapReduce operations (measured on a %d-atom membrane)", tab2Atoms),
		Header: []string{"approach", "partitioning", "map", "shuffle payload", "reduce",
			"tasks", "edges", "broadcast", "shuffle"},
	}
	rows := []struct {
		a           leaflet.Approach
		part        string
		mapDesc     string
		shuffleDesc string
		reduceDesc  string
	}{
		{leaflet.Broadcast1D, "1D", "edge discovery via pairwise distance", "edge list (O(E))", "connected components"},
		{leaflet.TaskAPI2D, "2D", "edge discovery via pairwise distance", "edge list (O(E))", "connected components"},
		{leaflet.ParallelCC, "2D", "pairwise distance + partial components", "partial components (O(n))", "join components"},
		{leaflet.TreeSearch, "2D", "tree search + partial components", "partial components (O(n))", "join components"},
	}
	sys := synth.Bilayer(tab2Atoms, 11)
	for _, r := range rows {
		res, err := leaflet.Run(rdd.NewExecutor(rdd.NewContext(0), nil), r.a, sys.Coords, synth.BilayerCutoff, 64, engine.Env{})
		if err != nil {
			t.AddRow(r.a.String(), r.part, r.mapDesc, r.shuffleDesc, r.reduceDesc, "-", "-", "-", "ERR: "+err.Error())
			continue
		}
		t.AddRow(r.a.String(), r.part, r.mapDesc, r.shuffleDesc, r.reduceDesc,
			res.Stats.Tasks, res.Stats.Edges,
			formatBytes(res.Stats.BroadcastBytes), formatBytes(res.Stats.ShuffleBytes))
	}
	t.Notes = append(t.Notes,
		"expected shape: approaches 3-4 shuffle far fewer bytes than 1-2 (components vs edges).")
	return t
}

// Table 3's support grades, ordered so that their sum ranks
// frameworks: unsupported or low performance, minor, supported, major.
var supportSymbols = []string{"-", "o", "+", "++"}

// criterion is one row of the paper's Table 3: a framework's support
// for it, indexed like frameworks and graded like supportSymbols.
type criterion struct {
	name    string
	support [3]int
}

// table3 is the paper's Table 3 (decision framework), in its two
// sections.
var table3 = []struct {
	section  string
	criteria []criterion
}{
	{"Task Management", []criterion{
		{"Low Latency", [3]int{0, 1, 2}},
		{"Throughput", [3]int{0, 2, 3}},
		{"MPI/HPC Tasks", [3]int{2, 1, 1}},
		{"Task API", [3]int{2, 1, 3}},
		{"Large Number of Tasks", [3]int{0, 3, 3}},
	}},
	{"Application Characteristics", []criterion{
		{"Python/native Code", [3]int{3, 1, 2}},
		{"Java", [3]int{1, 3, 1}},
		{"Higher-Level Abstraction", [3]int{0, 3, 2}},
		{"Shuffle", [3]int{0, 3, 2}},
		{"Broadcast", [3]int{0, 3, 2}},
		{"Caching", [3]int{0, 3, 1}},
	}},
}

// recommend ranks the frameworks against an application's needs with
// the paper's decision framework (§4.4): each needed criterion adds its
// support grade, and the highest total wins, ties going to the earlier
// column. MPI is the baseline, not ranked, as in Table 3.
func recommend(needs ...string) (framework string, score int) {
	var scores [3]int
	for _, need := range needs {
		found := false
		for _, sec := range table3 {
			for _, c := range sec.criteria {
				if c.name == need {
					found = true
					for i, s := range c.support {
						scores[i] += s
					}
				}
			}
		}
		if !found {
			panic("bench: unknown Table 3 criterion " + need)
		}
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return frameworks[best], scores[best]
}

// Tab3 renders the paper's Table 3 (decision framework), plus a worked
// recommendation example.
func Tab3(cal *Calibration) *Table {
	t := &Table{
		ID:     "tab3",
		Title:  "Decision framework: criteria and ranking (paper Table 3)",
		Header: append([]string{"criterion"}, frameworks...),
	}
	for _, sec := range table3 {
		t.AddRow("["+sec.section+"]", "", "", "")
		for _, c := range sec.criteria {
			t.AddRow(c.name, supportSymbols[c.support[0]], supportSymbols[c.support[1]], supportSymbols[c.support[2]])
		}
	}
	fw, score := recommend("Throughput", "Large Number of Tasks", "Shuffle")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"example: for {throughput, many tasks, shuffle}, Recommend ranks %s first (score %d)", fw, score))
	return t
}
