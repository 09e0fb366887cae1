// Package psa is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package psa

import (
	"mdtask/internal/dask"
)

// Run picks an engine itself.
func Run() { dask.Run() }
