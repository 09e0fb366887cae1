// Package dask is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package dask

// Run is the engine's entry point.
func Run() {}
