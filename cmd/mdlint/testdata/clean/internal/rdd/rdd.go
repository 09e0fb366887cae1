// Package rdd is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package rdd

// Run is the engine's entry point.
func Run() {}
