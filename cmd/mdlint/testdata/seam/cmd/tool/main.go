// Command tool is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package main

import (
	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
)

func main() {
	jobs.Dispatch()
	fleet.Dispatch()
	psa.Run()
	leaflet.Run()
}
