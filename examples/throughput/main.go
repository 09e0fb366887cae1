// Throughput example: the paper's §4.1 task-throughput comparison at
// laptop scale — zero-workload tasks submitted to the real Spark-like,
// Dask-like and pilot engines. The architectural gap that dominates the
// paper's Figure 2 is visible directly: the pilot engine, whose every
// unit travels through a coordination database and the filesystem, is
// orders of magnitude slower than the in-process data-parallel engines.
// (The Dask-vs-Spark gap in the paper comes from PySpark's
// serialization costs, which native Go engines do not pay; the
// calibrated cluster model in `mdbench -exp fig2` reproduces it.)
//
// Run with: go run ./examples/throughput
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"mdtask/internal/dask"
	"mdtask/internal/pilot"
	"mdtask/internal/rdd"
)

const nTasks = 2000

func main() {
	fmt.Printf("executing %d zero-workload tasks per engine\n\n", nTasks)
	fmt.Printf("%-14s %12s %14s\n", "engine", "elapsed", "tasks/sec")

	// Spark-like: one partition per task, empty map.
	ctx := rdd.NewContext(8)
	start := time.Now()
	if _, err := rdd.Map(rdd.Range(ctx, nTasks, nTasks), func(i int) (int, error) {
		return i, nil
	}).Collect(); err != nil {
		log.Fatal(err)
	}
	report("spark-like", time.Since(start))

	// Dask-like: one delayed node per task.
	client := dask.NewClient(8)
	nodes := make([]*dask.Delayed, nTasks)
	for i := range nodes {
		nodes[i] = client.Delayed("t", func([]interface{}) (interface{}, error) { return nil, nil })
	}
	start = time.Now()
	if _, err := client.Compute(nodes...); err != nil {
		log.Fatal(err)
	}
	report("dask-like", time.Since(start))

	// Pilot: every task is a Compute-Unit travelling through the
	// coordination DB — orders of magnitude slower, as in the paper.
	dir, err := os.MkdirTemp("", "throughput-pilot-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	p, err := pilot.NewPilot(8, dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()
	descs := make([]pilot.UnitDescription, nTasks/10) // fewer units: RP is slow
	for i := range descs {
		descs[i] = pilot.UnitDescription{Name: "t", Fn: func(string) error { return nil }}
	}
	start = time.Now()
	if err := p.Wait(p.Submit(descs)); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("%-14s %12s %14.0f   (on %d units)\n",
		"pilot", elapsed.Round(time.Millisecond),
		float64(len(descs))/elapsed.Seconds(), len(descs))
}

func report(name string, elapsed time.Duration) {
	fmt.Printf("%-14s %12s %14.0f\n", name, elapsed.Round(time.Millisecond),
		float64(nTasks)/elapsed.Seconds())
}
