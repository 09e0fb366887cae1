// Package mpi is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package mpi

// Run is the engine's entry point.
func Run() {}
