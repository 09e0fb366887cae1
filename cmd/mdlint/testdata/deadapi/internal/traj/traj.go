// Package traj is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package traj

// Reader reads a trajectory. Its Name has no caller, though
// Trajectory's Name has one.
type Reader struct{}

// Name is dead.
func (Reader) Name() string { return "r" }

// Open returns a Reader.
func Open() Reader { return Reader{} }

// Trajectory is a trajectory.
type Trajectory struct{}

// Name is used.
func (Trajectory) Name() string { return "t" }

// Analyses is a var with no use.
var Analyses = []string{"psa"}

// Limit is a const with no use.
const Limit = 8

// Orphan is named only by its own method's receiver.
type Orphan struct{}

func (Orphan) Error() string { return "orphan" }
