// Command tool is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package main

import (
	"mdtask/internal/traj"
)

func main() {
	_ = traj.Open()
	_ = traj.Trajectory{}.Name()
}
