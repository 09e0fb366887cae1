// Package leaflet is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package leaflet

import (
	"mdtask/internal/obs"
)

// Run instruments itself.
func Run() { obs.Span() }
