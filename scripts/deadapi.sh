#!/bin/sh
# deadapi: no exported API that nothing serves. Every exported
# top-level func, or exported method of an exported type, declared in a
# non-test file under internal/ must be referenced, as a whole word, by
# some non-test Go file of the module (cmd/, examples/ and benchmark/
# included) other than its own declaration. Names inside // comments
# and string, rune or raw-string literals do not count as references
# (an error message naming its own function is not a caller), and
# neither do other declarations of the same name, so an operator
# reached only from its own tests is flagged. The few
# references that tests in several packages compare against, which
# cannot move into one package's _test.go file, sit in the allowlist
# below, each with its reason. An allowlist entry that is no longer
# flagged fails too, so the list cannot go stale.
#
# Run via `make deadapi`; CI gates on it.
set -eu
cd "$(dirname "$0")/.."

# pkg.Func or pkg.Type.Method, then the reason it stays.
allow='
balltree.BruteRadius          reference the ball-tree tests compare QueryRadiusAppend against
psa.SerialRefs                single-goroutine reference the engine conformance tests compare against
graph.CheckLabels             canonical-labelling oracle the graph and leaflet tests share
synth.Adversarial             generator of the hausdorff and engine differential fuzz targets
synth.PathEnsemble            ensemble the hausdorff tests and BENCH_psa.json counters run on
traj.Trajectory.IsPacked      lets jobs tests assert a runner packs before its timed tasks
faultinject.Deactivate        disarms injected faults between tests in five packages
jobs.NewExecutor              conformtest runs leaflet.Run on each engine through the table
leaflet.Equal                 label-equality check the Leaflet tests of five packages compare with
cluster.Simulate              independent event-driven reference the Estimate tests compare against
linalg.Centroid               reference the traj packing tests compare per-frame centroids against
proptest.Check                seeds, replayably, the testing/quick properties that tests in ten packages run
'

# The file list arrives on stdin and awk reads each file itself, so one
# awk process sees the whole module however long the list grows. A
# func counts as referenced by pkg.Name anywhere or by a bare Name in
# its own package; a method by .Name anywhere, except where the name
# before the dot is a package the same file imports (strings.Cut is no
# call of a Cut method).
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort |
  awk -v allow="$allow" '
    BEGIN {
      n = split(allow, lines, "\n")
      for (i = 1; i <= n; i++) {
        if (split(lines[i], f, " ") > 0) allowed[f[1]] = 1
      }
    }
    { scan($0) }
    # code blanks the line'"'"'s literals and drops its // comment; inraw
    # carries a raw string literal across lines.
    function code(line,    out, c) {
      out = ""
      while (line != "") {
        if (inraw) {
          if (!index(line, "`")) return out
          line = substr(line, index(line, "`") + 1)
          inraw = 0
          continue
        }
        if (!match(line, /[`"'"'"'\/]/)) return out line
        out = out substr(line, 1, RSTART - 1)
        c = substr(line, RSTART, 1)
        line = substr(line, RSTART + 1)
        if (c == "/") {
          if (substr(line, 1, 1) == "/") return out
          out = out c
        } else if (c == "`") {
          out = out " "
          inraw = 1
        } else {
          out = out " "
          if (!match(line, "^([^" c "\\\\]|\\\\.)*" c)) return out
          line = substr(line, RLENGTH + 1)
        }
      }
      return out
    }
    # imported records the name an import spec ([name] "path") binds in
    # the file being scanned: its alias, or the path'"'"'s last element
    # (the one before a /vN major-version suffix).
    function imported(spec,    name, path, n, el) {
      if (!match(spec, /^[ \t]*([A-Za-z_][A-Za-z0-9_]*[ \t]+)?"[^"]*"/)) return
      spec = substr(spec, RSTART, RLENGTH)
      path = substr(spec, index(spec, "\"") + 1)
      sub(/"$/, "", path)
      name = substr(spec, 1, index(spec, "\"") - 1)
      gsub(/[ \t]/, "", name)
      if (name == "") {
        n = split(path, el, "/")
        name = el[n]
        if (name ~ /^v[0-9]+$/ && n > 1) name = el[n - 1]
      }
      if (name != "_" && name != ".") imports[name] = 1
    }
    function scan(file,    line, fnr, head, recv, dir, pkg, rest, tok, prev, dotted, inimport) {
      dir = file
      sub(/\/[^\/]*$/, "", dir)
      pkg = dir
      sub(/.*\//, "", pkg)
      inraw = 0
      split("", imports)
      while ((getline line < file) > 0) {
        fnr++
        if (inimport) {
          if (line ~ /^[ \t]*\)/) inimport = 0
          else imported(line)
        } else if (line ~ /^import[ \t]*\(/) inimport = 1
        else if (line ~ /^import[ \t]/) imported(substr(line, 7))
        line = code(line)
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
            if (!(RSTART == 2 && prev in imports)) dots[tok]++
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
