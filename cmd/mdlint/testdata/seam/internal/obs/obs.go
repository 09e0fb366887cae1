// Package obs is a fixture package of the mdlint tests;
// its second line makes the doc comment substantive.
package obs

// Span records a span.
func Span() {}
