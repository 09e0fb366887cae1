// Command tool is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package main

import (
	"mdtask/internal/engine"
	"mdtask/internal/jobs"
	"mdtask/internal/psa"
)

func main() {
	psa.Run(engine.New())
	jobs.Dispatch()
	_ = engine.Fail()
}
