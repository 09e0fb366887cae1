// Package engine is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package engine

// Executor runs tasks.
type Executor interface{ Run(task func()) }

// Serial runs each task in the caller; its Run is used through Executor.
type Serial struct{}

// Run runs task.
func (Serial) Run(task func()) { task() }

// Err is an error; its Error method is used through the error interface.
type Err struct{}

func (Err) Error() string { return "err" }

// New returns an Executor.
func New() Executor { return Serial{} }

// Fail returns an error.
func Fail() error { return Err{} }

// Kept has no caller; the tests allowlist it.
func Kept() {}
