package main

// Every call the benchmark makes into internal/* lives in this file:
// the in-process reference runs of the correctness check, the input
// files of psa-reuse, the traced replay (source B of the per-layer
// metrics) and the fixed-input micro-passes (source C). It binds to the
// Ref forms and to jobs.Resolve/ResolveInput/RunCached/RunLocal and
// Input.ContentDigest — the API ROADMAP item 3 keeps — so the executor
// refactor has one file to look at.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdtask/internal/balltree"
	"mdtask/internal/blockstore"
	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
	"mdtask/internal/wal"
)

// referenceResult recomputes a submitted spec in-process on the serial
// engine with the naive kernel, fully in memory — the trusted path
// every engine, method and residency mode must match bit for bit.
func referenceResult(body []byte) (*resultDoc, error) {
	var spec jobs.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, err
	}
	spec.Engine, spec.Parallelism, spec.Tasks = jobs.EngineSerial, 0, 0
	if spec.Analysis == jobs.AnalysisPSA {
		spec.Method, spec.MaxResidentFrames = "naive", 0
	}
	_, res, _, err := jobs.RunLocal(jobs.DefaultRegistry(), spec)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	return &doc, json.Unmarshal(raw, &doc)
}

// leafletTruth is the generator's own leaflet sizes for a synth
// membrane.
func leafletTruth(atoms int, seed uint64) (lower, upper int) {
	return synth.Bilayer(atoms, seed).CountLeaflets()
}

// writeChain writes one psa-reuse chain under dir: reuseChainFiles
// trajectories in files/ (float32 MDT, as cmd/trajgen writes them) and
// an ens-k/ directory of hard links to the first k for every ensemble
// size the walk submits.
func writeChain(dir string, seed uint64, atoms, frames int) error {
	files := filepath.Join(dir, "files")
	if err := os.MkdirAll(files, 0o755); err != nil {
		return err
	}
	for i := 0; i < reuseChainFiles; i++ {
		name := fmt.Sprintf("t%02d", i)
		t := synth.Walk(name, atoms, frames, seed, uint64(i))
		if err := traj.WriteMDTFile(filepath.Join(files, name+".mdt"), t, 4); err != nil {
			return err
		}
	}
	for k := reuseBase; k <= reuseChainFiles; k++ {
		ens := filepath.Join(dir, fmt.Sprintf("ens-%02d", k))
		if err := os.MkdirAll(ens, 0o755); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			name := fmt.Sprintf("t%02d.mdt", i)
			if err := os.Link(filepath.Join(files, name), filepath.Join(ens, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// walReplaySeconds times wal.Open on a journal directory a server left
// behind — the recovery cost the next boot pays.
func walReplaySeconds(dir string) (float64, error) {
	t0 := time.Now()
	l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	return d, l.Close()
}

// replayJob is one job of the traced replay; untimed ones (the
// workload's warm-up) run without spans, only to leave the block store
// in the state the timed jobs met.
type replayJob struct {
	job
	timed bool
}

// replay runs jobs through the serving pipeline's public functions in
// order, one span per call, all under a root span per job: spec decode,
// input resolve, input digest, the admission journal write, the run on
// the job's own engine (or the whole-job cache lookup that replaces
// it), result encode and result digest. The first timed PSA job is then
// taken apart once more — partition, each block serially, assemble — on
// a fresh input and without the block store. It returns the medians
// over the timed jobs.
func replay(rec *recorder, list []replayJob, tmp string) (map[string]float64, error) {
	ws, _, err := jobs.OpenWALStore(jobs.WALStoreOptions{Dir: filepath.Join(tmp, "replay-wal"), Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	var (
		reg     = jobs.DefaultRegistry()
		store   = blockstore.New(0)
		results = make(map[string]*jobs.Result) // whole-job entries, as the scheduler keeps them
		samples = make(map[string][]float64)
		vals    = make(map[string]float64)
		taken   bool
	)
	for n, rj := range list {
		r, id := rec, n
		if !rj.timed {
			r, id = newRecorder(), -1 // spans of warm-up jobs are thrown away
		}
		root := r.begin("job", id, -1)
		in := func(name string, fn func() error) error {
			s := r.begin(name, id, root)
			err := fn()
			if d := r.end(s); rj.timed {
				samples[name] = append(samples[name], d.Seconds())
			}
			return err
		}
		var (
			spec   jobs.Spec
			input  *jobs.Input
			digest string
			res    *jobs.Result
			raw    []byte
		)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"jobs.spec_decode_s", func() (err error) {
				dec := json.NewDecoder(bytes.NewReader(rj.Body))
				dec.DisallowUnknownFields()
				if err = dec.Decode(&spec); err == nil {
					spec, err = spec.Normalized()
				}
				return err
			}},
			{"jobs.input_resolve_s", func() (err error) { input, err = jobs.ResolveInput(spec); return err }},
			{"jobs.input_digest_s", func() (err error) { digest, err = input.ContentDigest(); return err }},
			{"jobs.journal_submit_s", func() error {
				now := time.Now()
				return ws.JournalSubmit(jobs.JobRecord{
					ID: fmt.Sprintf("job-%06d", n+1), Spec: spec, Key: jobs.CacheKey(spec, digest),
					State: jobs.StateQueued, Created: now, Updated: now,
				})
			}},
			{"engine.run", func() (err error) {
				key := jobs.CacheKey(spec, digest)
				if hit, ok := results[key]; ok {
					res = hit
					return nil
				}
				res, _, err = jobs.RunCached(reg, spec, input, store)
				results[key] = res
				return err
			}},
			{"jobs.result_encode_s", func() (err error) { raw, err = json.Marshal(res); return err }},
			{"jobs.result_digest_s", func() error { sha256.Sum256(raw); return nil }},
		}
		for _, st := range steps {
			if err := in(st.name, st.fn); err != nil {
				return nil, fmt.Errorf("replaying job %d: %s: %w", n, st.name, err)
			}
		}
		if total := r.end(root); rj.timed {
			samples["trace.job_total_s"] = append(samples["trace.job_total_s"], total.Seconds())
			samples["jobs.result_bytes"] = append(samples["jobs.result_bytes"], float64(len(raw)))
			mb := float64(inputBytes(input)) / 1e6
			dig := samples["jobs.input_digest_s"]
			samples["jobs.input_digest_mb_per_s"] = append(samples["jobs.input_digest_mb_per_s"], mb/dig[len(dig)-1])
		}
		if rj.timed && !taken && spec.Analysis == jobs.AnalysisPSA {
			taken = true
			if err := psaPipeline(rec, id, spec, vals); err != nil {
				return nil, err
			}
		}
	}
	for name, xs := range samples {
		vals[name] = median(xs)
	}
	return vals, nil
}

// inputBytes is the in-memory coordinate size of a resolved input.
func inputBytes(in *jobs.Input) int64 {
	if in.Refs != nil {
		return in.Refs.Bytes()
	}
	return leaflet.CoordBytes(len(in.Coords))
}

// psaPipeline takes one PSA job apart: Partition, every block through
// ComputeBlockRefs on one goroutine (no cache, so every block runs its
// kernel), Assemble. The serial sum against the slowest block is the
// imbalance an engine cannot schedule away.
func psaPipeline(rec *recorder, id int, spec jobs.Spec, vals map[string]float64) error {
	in, err := jobs.ResolveInput(spec)
	if err != nil {
		return err
	}
	method, err := hausdorff.ParseMethod(spec.Method)
	if err != nil {
		return err
	}
	root := rec.begin("psa.pipeline", id, -1)
	defer rec.end(root)
	// The block edge the job layer picks: Tasks, else Parallelism, else
	// the four ranks of the distributed engines (jobs.Spec.groupSize).
	want := spec.Tasks
	if want <= 0 {
		want = spec.Parallelism
	}
	if want <= 0 {
		want = 4
	}
	s := rec.begin("psa.partition", id, root)
	blocks, err := psa.Partition(len(in.Refs), psa.DefaultGroupSize(len(in.Refs), want), !spec.FullMatrix)
	vals["psa.partition_s"] = rec.end(s).Seconds()
	if err != nil {
		return err
	}
	opts := psa.Opts{Symmetric: !spec.FullMatrix, Method: method, MaxResidentFrames: spec.MaxResidentFrames}
	results := make([]psa.BlockResult, len(blocks))
	var sum, max float64
	for i, b := range blocks {
		s := rec.begin("psa.block", id, root)
		results[i], err = psa.ComputeBlockRefs(in.Refs, b, opts)
		d := rec.end(s).Seconds()
		if err != nil {
			return err
		}
		sum += d
		max = math.Max(max, d)
	}
	s = rec.begin("psa.assemble", id, root)
	psa.Assemble(len(in.Refs), results)
	vals["psa.assemble_s"] = rec.end(s).Seconds()
	vals["psa.block_compute_s"] = sum
	vals["psa.blocks_per_job"] = float64(len(blocks))
	vals["psa.block_imbalance"] = max * float64(len(blocks)) / sum
	return nil
}

// perOp times batches of fn until budget has passed (at least three
// batches) and returns the median batch time per call, in seconds.
func perOp(budget time.Duration, batch int, fn func()) float64 {
	var xs []float64
	for t0 := time.Now(); len(xs) < 3 || time.Since(t0) < budget; {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		xs = append(xs, time.Since(b0).Seconds()/float64(batch))
	}
	return median(xs)
}

// microPasses runs every fixed-input pass, one span each, and returns
// their metrics. Inputs depend only on the scale, never on the run
// seed, so counts repeat exactly between runs.
func microPasses(rec *recorder, sc scale, tmp string) (map[string]float64, error) {
	vals := make(map[string]float64)
	passes := []struct {
		name string
		fn   func(map[string]float64, scale, string) error
	}{
		{"micro.wal", microWAL},
		{"micro.blockstore", microBlockstore},
		{"micro.traj", microTraj},
		{"micro.synth+linalg", microSynthLinalg},
		{"micro.hausdorff", microHausdorff},
		{"micro.engine", microEngines},
		{"micro.leaflet", microLeaflet},
		{"micro.jobs", microJobs},
	}
	for _, p := range passes {
		s := rec.begin(p.name, -1, -1)
		err := p.fn(vals, sc, tmp)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	// The cost of the recorder itself, on a throw-away instance.
	scratch := newRecorder()
	scratch.spans = make([]span, 0, 1<<16)
	vals["trace.span_overhead_ns"] = 1e9 * perOp(sc.microBudget, 1<<10, func() {
		if len(scratch.spans) == cap(scratch.spans) {
			scratch.spans = scratch.spans[:0]
		}
		scratch.end(scratch.begin("empty", 0, -1))
	})
	return vals, nil
}

func microWAL(vals map[string]float64, sc scale, tmp string) error {
	payload := bytes.Repeat([]byte("x"), 256) // about one lifecycle record
	for _, p := range []struct {
		name  string
		pol   wal.SyncPolicy
		batch int
	}{{"wal.append_fsync_s", wal.SyncAlways, 1}, {"wal.append_nosync_s", wal.SyncNever, 64}} {
		dir, err := os.MkdirTemp(tmp, "micro-wal-")
		if err != nil {
			return err
		}
		l, _, err := wal.Open(wal.Options{Dir: dir, Sync: p.pol})
		if err != nil {
			return err
		}
		vals[p.name] = perOp(sc.microBudget, p.batch, func() {
			if aerr := l.Append(payload); aerr != nil && err == nil {
				err = aerr
			}
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	// One job's journal footprint: its submit record and its running and
	// done transitions, through the job layer's own store.
	dir := filepath.Join(tmp, "micro-walstore")
	ws, _, err := jobs.OpenWALStore(jobs.WALStoreOptions{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	spec, err := jobs.Spec{Analysis: jobs.AnalysisPSA, Synth: &jobs.SynthSpec{Seed: 1}}.Normalized()
	if err != nil {
		return err
	}
	const n = 32
	now := time.Unix(1700000000, 123456789).UTC() // fixed: a timestamp's encoded length varies with its digits
	digest := fmt.Sprintf("%064x", 1)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := ws.JournalSubmit(jobs.JobRecord{ID: id, Spec: spec, Key: digest, State: jobs.StateQueued, Created: now, Updated: now}); err != nil {
			return err
		}
		if err := ws.JournalState(id, jobs.StateRunning, "", "", now); err != nil {
			return err
		}
		if err := ws.JournalState(id, jobs.StateDone, "", digest, now); err != nil {
			return err
		}
	}
	if err := ws.Close(); err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	vals["wal.bytes_per_job"] = float64(st.Size()) / n
	return nil
}

func microBlockstore(vals map[string]float64, _ scale, _ string) error {
	const n = 1 << 13
	keys := make([]string, 2*n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	block := make([]float64, 36) // a 6×6 PSA block
	size := func(any) int64 { return int64(len(block)) * 8 }
	s := blockstore.New(0)
	t0 := time.Now()
	for _, k := range keys[:n] {
		s.Put(k, block, size(nil))
	}
	vals["blockstore.put_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for _, k := range keys[:n] {
		s.Get(k)
	}
	vals["blockstore.get_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for _, k := range keys[n:] {
		if _, _, err := s.Do(k, size, func() (any, error) { return block, nil }); err != nil {
			return err
		}
	}
	vals["blockstore.do_miss_overhead_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	return nil
}

func microTraj(vals map[string]float64, sc scale, tmp string) error {
	t := synth.Walk("micro", sc.reuseAtoms, sc.reuseFrames, 1, 0)
	mb := float64(t.Bytes()) / 1e6 // in-memory coordinate bytes, the unit of every traj rate
	var (
		raw []byte
		err error
	)
	vals["traj.mdt_encode_mb_per_s"] = mb / perOp(sc.microBudget, 1, func() { raw, err = traj.EncodeMDT(t, 4) })
	if err != nil {
		return err
	}
	vals["traj.mdt_decode_mb_per_s"] = mb / perOp(sc.microBudget, 1, func() { _, err = traj.DecodeMDT(raw) })
	if err != nil {
		return err
	}
	path := filepath.Join(tmp, "micro.mdt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	// A fresh Ref per call: a Ref caches its digest.
	vals["traj.ref_digest_mb_per_s"] = mb / perOp(sc.microBudget, 1, func() {
		var ref *traj.Ref
		if ref, err = traj.FileRef(path); err == nil {
			_, err = ref.Digest()
		}
	})
	if err != nil {
		return err
	}
	ref, err := traj.FileRef(path)
	if err != nil {
		return err
	}
	vals["traj.window_iter_mb_per_s"] = mb / perOp(sc.microBudget, 1, func() {
		it := ref.Windows(16)
		for {
			if _, werr := it.Next(); werr != nil {
				if werr != io.EOF {
					err = werr
				}
				return
			}
		}
	})
	if err != nil {
		return err
	}
	cold := synth.Walk("pack", sc.psaAtoms, sc.psaFrames, 1, 0)
	vals["traj.pack_s"] = perOp(sc.microBudget, 1, func() { traj.Pack(cold) })
	return nil
}

func microSynthLinalg(vals map[string]float64, sc scale, _ string) error {
	var t *traj.Trajectory
	sec := perOp(sc.microBudget, 1, func() { t = synth.Walk("w", sc.psaAtoms, sc.psaFrames, 1, 0) })
	vals["synth.walk_mb_per_s"] = float64(t.Bytes()) / 1e6 / sec
	vals["synth.bilayer_atoms_per_s"] = float64(sc.leafletAtoms) / perOp(sc.microBudget, 1, func() { synth.Bilayer(sc.leafletAtoms, 1) })

	a, b := t.FrameCoords(0), t.FrameCoords(t.NFrames()-1)
	vals["linalg.drms_ns_per_atom"] = 1e9 * perOp(sc.microBudget, 64, func() { linalg.DRMS(a, b) }) / float64(len(a))
	p := t.Packed()
	ra, rb := p.Row(0), p.Row(p.NFrames-1)
	vals["linalg.drms_within_ns_per_atom"] = 1e9 * perOp(sc.microBudget, 64, func() { linalg.DRMSWithin(ra, rb, math.Inf(1)) }) / float64(len(a))
	return nil
}

// microHausdorff runs every kernel over all pairs of a fixed
// psa-cold-shaped ensemble. The three shares of a method are its
// counters over their own total, so they sum to one by construction of
// the counters (the pair-sum invariant of docs/kernels.md); the base is
// reported as hausdorff.frame_pairs.
func microHausdorff(vals map[string]float64, sc scale, _ string) error {
	ens := make(traj.Ensemble, sc.hausTrajs)
	for i := range ens {
		ens[i] = synth.Walk(fmt.Sprintf("h%02d", i), sc.psaAtoms, sc.psaFrames, 1, uint64(i))
		ens[i].Packed() // as the job layer does before a pruned run
	}
	refs := traj.RefsOf(ens)
	allPairs := func(dist func(i, j int) error) (float64, error) {
		t0 := time.Now()
		for i := range ens {
			for j := i + 1; j < len(ens); j++ {
				if err := dist(i, j); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	var prunedSec float64
	for _, m := range hausdorff.Methods {
		var c hausdorff.Counters
		sec, _ := allPairs(func(i, j int) error { hausdorff.DistanceCounted(ens[i], ens[j], m, &c); return nil })
		total := float64(c.Total())
		pre := "hausdorff." + m.String()
		vals[pre+".ns_per_frame_pair"] = 1e9 * sec / total
		vals[pre+".evaluated_share"] = float64(c.Evaluated) / total
		vals[pre+".abandoned_share"] = float64(c.Abandoned) / total
		vals[pre+".pruned_share"] = float64(c.Pruned) / total
		vals["hausdorff.frame_pairs"] = total
		switch m {
		case hausdorff.Pruned:
			prunedSec = sec
		case hausdorff.Indexed:
			rows := float64(len(ens)*(len(ens)-1)) * float64(sc.psaFrames) // both directions of every pair
			vals["hausdorff.indexed.nodes_visited_per_row"] = float64(c.NodesVisited) / rows
		}
	}
	var c hausdorff.Counters
	sec, err := allPairs(func(i, j int) error {
		_, err := hausdorff.DistanceStreamed(refs[i], refs[j], 16, hausdorff.Pruned, &c, nil)
		return err
	})
	if err != nil {
		return err
	}
	vals["hausdorff.streamed.pruned.ns_per_frame_pair"] = 1e9 * sec / float64(c.Total())
	vals["hausdorff.streamed.overhead_ratio"] = sec / prunedSec
	return nil
}

// microEngines runs one fixed PSA job and one fixed Leaflet job on each
// engine through jobs.RunCached. Overhead is the paper's framework
// overhead: the run's wall time beyond what perfect scheduling of its
// tasks on P workers would need.
func microEngines(vals map[string]float64, sc scale, _ string) error {
	const p = 2
	reg := jobs.DefaultRegistry()
	run := func(spec jobs.Spec) (runSec, overhead float64, err error) {
		var runs, overs []float64
		for r := 0; r < sc.microReps; r++ {
			norm, in, err := jobs.Resolve(spec)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			_, m, err := jobs.RunCached(reg, norm, in, nil)
			d := time.Since(t0).Seconds()
			if err != nil {
				return 0, 0, err
			}
			ideal := math.Max(m.MaxTask.Seconds(), m.ComputeTime.Seconds()/float64(spec.Parallelism))
			runs, overs = append(runs, d), append(overs, d-ideal)
		}
		return median(runs), median(overs), nil
	}
	small := &jobs.SynthSpec{Count: sc.psaCount, Atoms: sc.psaAtoms / 4, Frames: sc.psaFrames / 2, Seed: 1}
	for _, e := range jobs.Engines {
		var err error
		psaSpec := jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: e, Method: "pruned", Parallelism: p, Synth: small}
		if vals["engine."+e+".psa_run_s"], vals["engine."+e+".psa_overhead_s"], err = run(psaSpec); err != nil {
			return err
		}
		lfSpec := jobs.Spec{Analysis: jobs.AnalysisLeaflet, Engine: e, Approach: "tree", Tasks: 64, Parallelism: p,
			Synth: &jobs.SynthSpec{Atoms: sc.microAtoms / 2, Seed: 1}}
		if e == jobs.EnginePilot {
			lfSpec.Approach = "task2d" // the only approach the pilot engine runs
		}
		if vals["engine."+e+".leaflet_run_s"], vals["engine."+e+".leaflet_overhead_s"], err = run(lfSpec); err != nil {
			return err
		}
	}
	// Scaling efficiency of the psa-cold job itself: one worker against two.
	cold := jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineDask, Method: "pruned",
		Synth: &jobs.SynthSpec{Count: sc.psaCount, Atoms: sc.psaAtoms, Frames: sc.psaFrames, Seed: 1}}
	var secs [2]float64
	for i := range secs {
		cold.Parallelism = i + 1
		var err error
		if secs[i], _, err = run(cold); err != nil {
			return err
		}
	}
	vals["engine.dask.speedup_p2"] = secs[0] / secs[1]
	return nil
}

func microLeaflet(vals map[string]float64, sc scale, _ string) error {
	n := sc.microAtoms
	coords := synth.Bilayer(n, 1).Coords
	var tree *balltree.Tree
	vals["balltree.build_ns_per_point"] = 1e9 * perOp(sc.microBudget, 1, func() { tree = balltree.New(coords) }) / float64(n)

	var edges []graph.Edge
	var found int
	t0 := time.Now()
	var buf []int32
	for i, q := range coords {
		buf = tree.QueryRadiusAppend(buf[:0], q, synth.BilayerCutoff)
		found += len(buf)
		for _, j := range buf {
			if j > int32(i) {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			}
		}
	}
	vals["balltree.query_radius_ns_per_query"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	vals["balltree.neighbors_per_query"] = float64(found) / float64(n)

	ne := float64(len(edges))
	vals["graph.unionfind_ns_per_edge"] = 1e9 * perOp(sc.microBudget, 1, func() { graph.ComponentsUnionFind(n, edges) }) / ne
	vals["graph.bfs_ns_per_edge"] = 1e9 * perOp(sc.microBudget, 1, func() { graph.ComponentsBFS(n, edges) }) / ne
	var partials [][]graph.Component
	for _, b := range leaflet.Blocks(n, 64) {
		comps, _ := leaflet.BlockPartial(coords, b, synth.BilayerCutoff, true)
		partials = append(partials, comps)
	}
	vals["graph.merge_components_s"] = perOp(sc.microBudget, 1, func() { graph.MergeComponents(n, partials...) })

	var res *leaflet.Result
	vals["leaflet.serial_s"] = perOp(sc.microBudget, 1, func() { res = leaflet.Serial(coords, synth.BilayerCutoff) })
	vals["leaflet.edges"] = float64(res.Stats.Edges)
	vals["leaflet.tiles"] = float64(len(leaflet.Plan2D(sc.leafletAtoms, 1024))) // the leaflet-cold job's own tiling
	return nil
}

// microJobs measures the job layer with the analysis taken out: a
// scheduler whose only runner returns at once, behind the real HTTP
// handler.
func microJobs(vals map[string]float64, sc scale, _ string) error {
	reg := jobs.NewRegistry()
	done := &jobs.Result{Matrix: psa.NewMatrix(4)}
	if err := reg.Register(jobs.RunnerName(jobs.AnalysisPSA, jobs.EngineSerial),
		func(*jobs.RunContext, jobs.Spec, *jobs.Input) (*jobs.Result, error) { return done, nil }); err != nil {
		return err
	}
	sched := jobs.NewScheduler(reg, jobs.Options{Workers: 2})
	defer sched.Close()
	var (
		seed uint64
		last *jobs.Job
		err  error
	)
	vals["jobs.scheduler_overhead_s"] = perOp(sc.microBudget, 1, func() {
		seed++
		j, serr := sched.Submit(jobs.Spec{Analysis: jobs.AnalysisPSA, Synth: &jobs.SynthSpec{Seed: seed}})
		if serr != nil {
			err = serr
			return
		}
		for !j.Status().State.Terminal() {
			runtime.Gosched()
		}
		last = j
	})
	if err != nil {
		return err
	}
	h := jobs.NewServerWith(sched, jobs.ServerOptions{})
	get := func(path string) float64 {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		return perOp(sc.microBudget, 16, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK && err == nil {
				err = fmt.Errorf("GET %s: %d", path, w.Code)
			}
		})
	}
	vals["jobs.http_floor_s"] = get("/healthz")
	vals["jobs.status_get_s"] = get("/v1/jobs/" + last.ID())
	vals["jobs.result_get_s"] = get("/v1/jobs/" + last.ID() + "/result")
	return err
}
