// Command benchgate is the kernel-efficiency regression gate: it
// compares a freshly recorded BENCH_psa.json (make bench-json into a
// scratch path) against the committed baseline and fails the build
// when the pruned Hausdorff pipeline loses ground.
//
// Only the deterministic counters gate — PairsEvaluated, the pairs that
// touch atoms (evaluated + abandoned: an abandoned evaluation can cost
// as much as a completed one, and the pruned fraction counts it as
// pruned), the pruned fraction and the scheduled-pair total per method,
// and for the streamed kernel the same pair counters, the windows
// decoded and the bytes streamed. Wall-clock (ns_per_op) is
// machine-dependent noise on shared CI runners and is deliberately
// ignored. On top of the relative comparison, one absolute rule guards
// the indexed kernel's reason to exist: on every ensemble measuring
// both methods, indexed must complete strictly fewer full evaluations
// than pruned. The
// streamed section records the in-memory pruned kernel's atom-touching
// pairs next to the streamed kernel's; a ceiling on their ratio comes
// with the cross-window kernel (ROADMAP item 3) — the window-local fold
// touches atoms for every pair it does not bound away.
//
// Usage:
//
//	benchgate -baseline BENCH_psa.json -current /tmp/bench.json [-tol 0.02]
//
// Exit status 0 means no regression; 1 means the gate tripped (every
// violation is listed); 2 means the inputs could not be read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mdtask/internal/obs"
)

// benchFile mirrors the layout internal/bench's TestWriteBenchPSAJSON
// records.
type benchFile struct {
	Benchmark  string           `json:"benchmark"`
	Ensembles  []benchEnsemble  `json:"ensembles"`
	Streamed   []benchStreamed  `json:"streamed"`
	BlockCache *benchBlockCache `json:"block_cache"`
}

// benchStreamed is one ensemble's streamed-pruned record: the pair
// counters, the read volume, and the in-memory pruned kernel's
// atom-touching pairs on the same ensemble.
type benchStreamed struct {
	Kind           string `json:"kind"`
	Trajectories   int    `json:"trajectories"`
	Atoms          int    `json:"atoms"`
	Frames         int    `json:"frames"`
	Window         int    `json:"window"`
	PairsEvaluated int64  `json:"pairs_evaluated"`
	PairsPruned    int64  `json:"pairs_pruned"`
	PairsAbandoned int64  `json:"pairs_abandoned"`
	WindowsDecoded int64  `json:"windows_decoded"`
	BytesStreamed  int64  `json:"bytes_streamed"`
	InMemEvaluated int64  `json:"inmem_pairs_evaluated"`
	InMemAbandoned int64  `json:"inmem_pairs_abandoned"`
}

type benchEnsemble struct {
	Kind         string        `json:"kind"`
	Trajectories int           `json:"trajectories"`
	Atoms        int           `json:"atoms"`
	Frames       int           `json:"frames"`
	Methods      []benchMethod `json:"methods"`
}

type benchMethod struct {
	Method         string  `json:"method"`
	NsPerOp        int64   `json:"ns_per_op"`
	PairsEvaluated int64   `json:"pairs_evaluated"`
	PairsPruned    int64   `json:"pairs_pruned"`
	PairsAbandoned int64   `json:"pairs_abandoned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	NodesVisited   int64   `json:"nodes_visited,omitempty"`
	NodesPruned    int64   `json:"nodes_pruned,omitempty"`
}

// benchBlockCache is the block-store effectiveness record: every field
// is deterministic (synth ensembles, fixed schedule), so the gate
// compares them exactly — no tolerance. Absent from the baseline, the
// section does not gate (pre-block-store baselines stay valid).
type benchBlockCache struct {
	Trajectories      int   `json:"trajectories"`
	GrownTrajectories int   `json:"grown_trajectories"`
	Blocks            int   `json:"blocks"`
	GrownBlocks       int   `json:"grown_blocks"`
	ColdMisses        int64 `json:"cold_misses"`
	WarmHits          int64 `json:"warm_hits"`
	WarmBytesSaved    int64 `json:"warm_bytes_saved"`
	DeltaHits         int64 `json:"delta_hits"`
	DeltaMisses       int64 `json:"delta_misses"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_psa.json", "committed baseline JSON")
		currentPath  = flag.String("current", "", "freshly recorded JSON to gate")
		tol          = flag.Float64("tol", 0.02, "allowed relative slack on evaluated and evaluated+abandoned pairs (and absolute slack on pruned fraction)")
		version      = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("benchgate", obs.Version())
		return
	}
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	violations, improvements := gate(baseline, current, *tol)
	for _, msg := range improvements {
		fmt.Println("benchgate: note:", msg)
	}
	if len(violations) > 0 {
		for _, msg := range violations {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", msg)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d kernel-efficiency regression(s) vs %s (tolerance %.0f%%)\n",
			len(violations), *baselinePath, *tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — counters within %.0f%% of %s across %d ensemble(s)\n",
		*tol*100, *baselinePath, len(baseline.Ensembles))
}

// load reads and parses one bench JSON file.
func load(path string) (benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchFile{}, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return benchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// gate compares current against baseline and returns the list of
// violations (gating) and improvements (informational). Rules, per
// (ensemble kind, method) present in the baseline:
//
//   - the pair must exist in current (a vanished measurement gates);
//   - the scheduled-pair total (evaluated+pruned+abandoned) must match
//     exactly — a drift means the benchmark itself changed, and the
//     baseline must be regenerated deliberately, not silently;
//   - evaluated pairs may not exceed baseline × (1+tol);
//   - neither may evaluated + abandoned pairs, the evaluations that
//     touch atoms: trading a few completed evaluations for many late
//     abandons leaves the two rules around this one satisfied;
//   - the pruned fraction may not drop below baseline − tol.
//
// The streamed section is gated by gateStreamed.
//
// When the baseline carries a block_cache section, its deterministic
// counters must match the current run exactly (hits lost to a keying
// or recording regression show up as a mismatch here).
func gate(baseline, current benchFile, tol float64) (violations, improvements []string) {
	violations = append(violations, gateBlockCache(baseline.BlockCache, current.BlockCache)...)
	violations = append(violations, gateIndexedReduction(current)...)
	violations = append(violations, gateStreamed(baseline.Streamed, current.Streamed, tol)...)
	cur := make(map[string]benchMethod)
	for _, e := range current.Ensembles {
		for _, m := range e.Methods {
			cur[e.Kind+"/"+m.Method] = m
		}
	}
	for _, e := range baseline.Ensembles {
		for _, b := range e.Methods {
			key := e.Kind + "/" + b.Method
			c, ok := cur[key]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s: missing from current run", key))
				continue
			}
			baseTotal := b.PairsEvaluated + b.PairsPruned + b.PairsAbandoned
			curTotal := c.PairsEvaluated + c.PairsPruned + c.PairsAbandoned
			if baseTotal != curTotal {
				violations = append(violations, fmt.Sprintf(
					"%s: scheduled pairs changed %d -> %d (benchmark drift; regenerate the baseline deliberately)",
					key, baseTotal, curTotal))
				continue
			}
			violations = append(violations, over(key, "evaluated pairs", b.PairsEvaluated, c.PairsEvaluated, tol)...)
			if c.PairsEvaluated < b.PairsEvaluated {
				improvements = append(improvements, fmt.Sprintf(
					"%s: evaluated pairs improved %d -> %d (consider refreshing the baseline)",
					key, b.PairsEvaluated, c.PairsEvaluated))
			}
			violations = append(violations, over(key, "evaluated+abandoned pairs",
				b.PairsEvaluated+b.PairsAbandoned, c.PairsEvaluated+c.PairsAbandoned, tol)...)
			if c.PrunedFraction < b.PrunedFraction-tol {
				violations = append(violations, fmt.Sprintf(
					"%s: pruned fraction %.4f < %.4f (baseline %.4f − %.2f)",
					key, c.PrunedFraction, b.PrunedFraction-tol, b.PrunedFraction, tol))
			}
		}
	}
	return violations, improvements
}

// over reports a counter that costs time when it exceeds its baseline
// by more than the relative tolerance.
func over(key, name string, base, cur int64, tol float64) []string {
	limit := float64(base) * (1 + tol)
	if float64(cur) <= limit {
		return nil
	}
	return []string{fmt.Sprintf("%s: %s %d > %d (baseline %d × %.2f)", key, name, cur, int64(limit), base, 1+tol)}
}

// gateIndexedReduction enforces the ball-tree kernel's reason to
// exist: on every ensemble of the current run that measures both
// methods, indexed must complete strictly fewer full dRMS evaluations
// than pruned (the counters are deterministic, so "strictly fewer" is
// a stable property, not a flaky threshold — see docs/kernels.md). The
// rule is absolute on the current run, not relative to the baseline:
// a regenerated baseline cannot launder the property away.
func gateIndexedReduction(current benchFile) (violations []string) {
	for _, e := range current.Ensembles {
		var pruned, indexed *benchMethod
		for i := range e.Methods {
			switch e.Methods[i].Method {
			case "pruned":
				pruned = &e.Methods[i]
			case "indexed":
				indexed = &e.Methods[i]
			}
		}
		if pruned == nil || indexed == nil {
			continue
		}
		if indexed.PairsEvaluated >= pruned.PairsEvaluated {
			violations = append(violations, fmt.Sprintf(
				"%s: indexed evaluated %d pairs, want strictly fewer than pruned's %d",
				e.Kind, indexed.PairsEvaluated, pruned.PairsEvaluated))
		}
	}
	return violations
}

// gateStreamed gates the streamed section: every baseline entry must
// still be measured, on the same shape, with no counter that costs
// time — evaluated pairs, atom-touching pairs, windows decoded, bytes
// streamed — above baseline × (1+tol). A baseline without the section
// gates nothing.
func gateStreamed(base, cur []benchStreamed, tol float64) (violations []string) {
	byKind := make(map[string]benchStreamed)
	for _, c := range cur {
		byKind[c.Kind] = c
	}
	for _, b := range base {
		key := "streamed/" + b.Kind
		c, ok := byKind[b.Kind]
		if !ok {
			violations = append(violations, key+": missing from current run")
			continue
		}
		baseTotal := b.PairsEvaluated + b.PairsPruned + b.PairsAbandoned
		curTotal := c.PairsEvaluated + c.PairsPruned + c.PairsAbandoned
		if baseTotal != curTotal || b.Window != c.Window {
			violations = append(violations, fmt.Sprintf(
				"%s: scheduled pairs changed %d -> %d, window %d -> %d (benchmark drift; regenerate the baseline deliberately)",
				key, baseTotal, curTotal, b.Window, c.Window))
			continue
		}
		check := func(name string, b, c int64) {
			violations = append(violations, over(key, name, b, c, tol)...)
		}
		check("evaluated pairs", b.PairsEvaluated, c.PairsEvaluated)
		check("evaluated+abandoned pairs", b.PairsEvaluated+b.PairsAbandoned, c.PairsEvaluated+c.PairsAbandoned)
		check("windows decoded", b.WindowsDecoded, c.WindowsDecoded)
		check("bytes streamed", b.BytesStreamed, c.BytesStreamed)
	}
	return violations
}

// gateBlockCache compares the block-store scenario counters exactly.
// A nil baseline section skips the gate; a baseline with the section
// requires the current run to carry it too.
func gateBlockCache(base, cur *benchBlockCache) (violations []string) {
	if base == nil {
		return nil
	}
	if cur == nil {
		return []string{"block_cache: missing from current run"}
	}
	if base.Trajectories != cur.Trajectories || base.GrownTrajectories != cur.GrownTrajectories {
		return []string{fmt.Sprintf(
			"block_cache: scenario changed %d→%d trajectories vs baseline %d→%d (regenerate the baseline deliberately)",
			cur.Trajectories, cur.GrownTrajectories, base.Trajectories, base.GrownTrajectories)}
	}
	check := func(name string, b, c int64) {
		if b != c {
			violations = append(violations, fmt.Sprintf("block_cache: %s = %d, baseline %d", name, c, b))
		}
	}
	check("blocks", int64(base.Blocks), int64(cur.Blocks))
	check("grown_blocks", int64(base.GrownBlocks), int64(cur.GrownBlocks))
	check("cold_misses", base.ColdMisses, cur.ColdMisses)
	check("warm_hits", base.WarmHits, cur.WarmHits)
	check("warm_bytes_saved", base.WarmBytesSaved, cur.WarmBytesSaved)
	check("delta_hits", base.DeltaHits, cur.DeltaHits)
	check("delta_misses", base.DeltaMisses, cur.DeltaMisses)
	return violations
}
