// Package psa is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package psa

import (
	"mdtask/internal/engine"
)

// Run runs one task on ex.
func Run(ex engine.Executor) { ex.Run(func() {}) }
