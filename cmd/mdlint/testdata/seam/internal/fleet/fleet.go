// Package fleet is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package fleet

import (
	"mdtask/internal/dask"
	"mdtask/internal/mpi"
	"mdtask/internal/rdd"
)

// Dispatch is a second engine table.
func Dispatch() {
	rdd.Run()
	dask.Run()
	mpi.Run()
}
