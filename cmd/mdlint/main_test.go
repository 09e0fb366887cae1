package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLint runs the lint over the fixture modules under testdata/, each
// a module named mdtask that breaks one rule, and checks the problems it
// reports, one substring per problem in the sorted order lint returns.
func TestLint(t *testing.T) {
	kept := map[string]string{"engine.Kept": "has no caller on purpose"}
	stale := map[string]string{"engine.Kept": "has no caller on purpose", "engine.Gone": "deleted"}
	for _, tc := range []struct {
		name, fixture string
		allow         map[string]string
		want          []string
	}{
		// Uses through a module interface and through error count, a
		// package only tests import exports freely, and the allowlist
		// suppresses what it names.
		{"clean", "clean", kept, nil},
		{"stale allowlist entry", "clean", stale, []string{"allowlist entry engine.Gone is used or gone"}},
		// An unused method that shares its name with a used one, an
		// unused var and const, and a type named only by its own
		// method's receiver.
		{"dead API", "deadapi", nil, []string{
			"traj.Analyses (",
			"traj.Limit (",
			"traj.Orphan (",
			"traj.Reader.Name (",
		}},
		// Two engine tables, an analysis importing an engine, and an
		// analysis importing obs.
		{"executor seam", "seam", nil, []string{
			"2 packages import all of rdd, dask and mpi (mdtask/internal/fleet, mdtask/internal/jobs)",
			"mdtask/internal/leaflet imports mdtask/internal/obs",
			"mdtask/internal/psa imports mdtask/internal/dask",
		}},
		// A command with no doc comment and a package whose doc is one
		// line.
		{"package docs", "docs", nil, []string{
			"mdtask/cmd/b: no package doc comment",
			"mdtask/internal/a: package doc comment is a single line",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := lint(tc.allow, filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d problems, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i := range got {
				if !strings.Contains(got[i], tc.want[i]) {
					t.Errorf("problem %d = %q, want it to contain %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}
