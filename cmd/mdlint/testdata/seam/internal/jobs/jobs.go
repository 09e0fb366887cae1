// Package jobs is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package jobs

import (
	"mdtask/internal/dask"
	"mdtask/internal/mpi"
	"mdtask/internal/rdd"
)

// Dispatch is the engine table.
func Dispatch() {
	rdd.Run()
	dask.Run()
	mpi.Run()
}
