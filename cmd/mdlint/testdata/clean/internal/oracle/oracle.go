// Package oracle is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package oracle

// Check is exported for tests only, as a package only tests import may.
func Check() bool { return true }
