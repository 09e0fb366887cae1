// Package a has a one-line doc comment.
package a

// A is used.
func A() {}
