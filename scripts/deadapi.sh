#!/bin/sh
# deadapi: no exported API that nothing serves. Every exported
# top-level func, or exported method of an exported type, declared in a
# non-test file under internal/ must be referenced, as a whole word, by
# some non-test Go file of the module (cmd/, examples/ and benchmark/
# included) other than its own declaration. Comment lines do not count
# as references, and neither do other declarations of the same name, so
# an operator reached only from its own tests is flagged. The few
# references that tests in several packages compare against, which
# cannot move into one package's _test.go file, sit in the allowlist
# below, each with its reason. An allowlist entry that is no longer
# flagged fails too, so the list cannot go stale.
#
# Entries whose reason starts "deferred" are operators reached only from
# their own tests whose deletion ROADMAP item 8(d) schedules for the
# next round, code and tests together; that round empties this group.
#
# Run via `make deadapi`; CI gates on it.
set -eu
cd "$(dirname "$0")/.."

# pkg.Func or pkg.Type.Method, then the reason it stays.
allow='
balltree.BruteRadius          reference the ball-tree tests compare QueryRadiusAppend against
hausdorff.DirectedNaive       reference the directed-kernel tests compare every method against
hausdorff.DirectedEarlyBreak  directed pass the kernel tests check, seeded, against DirectedNaive
hausdorff.DirectedPruned      directed pass the kernel tests check, seeded, against DirectedNaive
hausdorff.DirectedIndexed     directed pass the kernel tests check, seeded, against DirectedNaive
psa.SerialRefs                single-goroutine reference the engine conformance tests compare against
graph.CheckLabels             canonical-labelling oracle the graph and leaflet tests share
synth.Adversarial             generator of the hausdorff and engine differential fuzz targets
synth.PathEnsemble            ensemble the hausdorff tests and BENCH_psa.json counters run on
traj.Trajectory.IsPacked      lets jobs tests assert a runner packs before its timed tasks
faultinject.Deactivate        disarms injected faults between tests in five packages
jobs.NewExecutor              conformtest runs leaflet.Run on each engine through the table
leaflet.Equal                 label-equality check the Leaflet tests of five packages compare with
mpi.Scan                      deferred: MPI extras (Allgather, Scan, Exscan, ReduceScatter, Sendrecv, Split)
mpi.Exscan                    deferred: MPI extras
mpi.Comm.Sendrecv             deferred: MPI extras
mpi.Group.WorldRank           deferred: MPI extras (Split groups)
mpi.GroupGather               deferred: MPI extras (Split groups)
mpi.GroupBcast                deferred: MPI extras (Split groups)
mpi.Comm.Barrier              deferred: MPI Barrier
dask.Client.Gather            deferred: dask submit/gather futures
traj.Trajectory.SelectAtoms   deferred: trajectory sub-setting (select.go)
traj.Trajectory.SelectFrames  deferred: trajectory sub-setting (select.go)
traj.SphereSelection          deferred: trajectory sub-setting (select.go)
obs.Histogram.Merge           deferred: histogram merge across processes
linalg.RotateFrame            deferred: rotation helper of the RMSD tests
rdd.FromPartitions            deferred: RDD from explicit partitions
cluster.SortedDescending      deferred: LPT ordering of task durations
leaflet.Recommended           deferred: approach choice by system size (paper §4.3.4 crossover)
'

# The file list arrives on stdin and awk reads each file itself, so one
# awk process sees the whole module however long the list grows. A
# func counts as referenced by pkg.Name anywhere or by a bare Name in
# its own package; a method by .Name anywhere.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort |
  awk -v allow="$allow" '
    BEGIN {
      n = split(allow, lines, "\n")
      for (i = 1; i <= n; i++) {
        if (split(lines[i], f, " ") > 0) allowed[f[1]] = 1
      }
    }
    { scan($0) }
    function scan(file,    line, fnr, head, recv, dir, pkg, rest, tok, prev, dotted) {
      dir = file
      sub(/\/[^\/]*$/, "", dir)
      pkg = dir
      sub(/.*\//, "", pkg)
      while ((getline line < file) > 0) {
        fnr++
        if (line ~ /^[ \t]*\/\//) continue
        head = ""
        recv = ""
        if (file ~ /^\.\/internal\// && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/)) {
          head = substr(line, 6, RLENGTH - 6)
          if (head ~ /^\(/) {
            recv = substr(head, 2, index(head, ")") - 2)
            sub(/^[A-Za-z0-9_]+ /, "", recv)
            sub(/^\*/, "", recv)
            sub(/\[.*/, "", recv)
            head = substr(head, index(head, ")") + 2)
          }
        }
        # Methods of unexported types are not API: skip them.
        if (head != "" && recv !~ /^[a-z_]/) {
          nd++
          dname[nd] = head
          dmethod[nd] = recv != ""
          dscope[nd] = recv != "" ? "" : dir SUBSEP head
          dqual[nd] = pkg "." head
          dkey[nd] = pkg "." (recv == "" ? "" : recv ".") head
          dsite[nd] = file ":" fnr
          if (recv == "") fdecls[dir, head]++
        }
        rest = line
        prev = ""
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
          tok = substr(rest, RSTART, RLENGTH)
          dotted = RSTART > 1 && substr(rest, RSTART - 1, 1) == "."
          if (!dotted) bare[dir, tok]++
          else {
            dots[tok]++
            if (RSTART == 2 && prev != "") qual[prev "." tok]++
          }
          prev = tok
          rest = substr(rest, RSTART + RLENGTH)
        }
      }
      close(file)
    }
    END {
      status = 0
      for (i = 1; i <= nd; i++) {
        if (dmethod[i]) refs = dots[dname[i]]
        else refs = qual[dqual[i]] + bare[dscope[i]] - fdecls[dscope[i]]
        dead = refs <= 0
        if (dead && !(dkey[i] in allowed)) {
          printf "deadapi: %s (%s) has no reference outside its declaration and tests\n", dkey[i], dsite[i] > "/dev/stderr"
          status = 1
        }
        if (dead) flagged[dkey[i]] = 1
      }
      for (k in allowed) {
        if (!(k in flagged)) {
          printf "deadapi: allowlist entry %s is referenced or gone; drop it\n", k > "/dev/stderr"
          status = 1
        }
      }
      if (status == 0) printf "deadapi: OK — %d exported funcs and methods, each referenced\n", nd
      exit status
    }'
