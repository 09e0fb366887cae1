package psa

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/pilot"
	"mdtask/internal/traj"
)

// RunPilotRefs computes PSA on the pilot engine: one Compute-Unit per
// block task. Faithful to RADICAL-Pilot's execution model, each unit
// reads its input trajectories from staged MDT files in its sandbox and
// writes its block of distances to an output file, which the client
// collects — all data exchange goes through the filesystem (§3.3), which
// is why the pilot is a staged engine outside the engine.Executor
// contract: its unit of exchange is bytes on disk, not a closure.
//
// With opts.MaxResidentFrames set, each trajectory is staged as a sequence
// of window-sized MDT files instead of one whole-trajectory file
// (traj.EncodeMDTWindow); the unit then replays the window chain
// through the streamed kernel, holding at most two windows of frames
// resident however long the trajectories are. The bound applies to the
// unit (worker) side only: the staging client holds every blob it
// stages until the units run, inherent to the in-process pilot's
// InputFiles staging model — truly out-of-core submission is the fleet
// engine's window endpoint.
func RunPilotRefs(p *pilot.Pilot, refs traj.RefEnsemble, n1 int, opts Opts) (*Matrix, error) {
	blocks, err := Partition(len(refs), n1, opts.Symmetric)
	if err != nil {
		return nil, err
	}
	// Block-cache prefilter: hits are resolved client-side before any
	// staging, so a cached block costs no blobs, no unit, no sandbox
	// round-trip. Units themselves run uncached (the sandbox boundary is
	// the point of the pilot model); the client records their completed
	// results afterwards.
	results := make([]BlockResult, len(blocks))
	var keys []string
	if opts.Cache != nil {
		keys = make([]string, len(blocks))
		for i, b := range blocks {
			k, kerr := BlockKey(refs, b, opts.Symmetric)
			if kerr != nil {
				keys = nil // undigestable ref: run the whole schedule uncached
				break
			}
			keys[i] = k
		}
	}
	missing := make([]int, 0, len(blocks))
	for i := range blocks {
		if keys != nil {
			if v, ok := opts.Cache.Get(keys[i]); ok {
				vals := v.([]float64)
				opts.recordBlockCache(1, 0, int64(len(vals))*8)
				results[i] = BlockResult{Block: blocks[i], Values: vals, Symmetric: opts.Symmetric}
				continue
			}
			opts.recordBlockCache(0, 1, 0)
		}
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return Assemble(len(refs), results), nil
	}
	// Serialize each trajectory once; units stage only what they read.
	// The symmetric schedule drops every lower-triangle mirror block, so
	// each blob shared by a (bi,bj)/(bj,bi) pair is staged once instead
	// of twice, and a diagonal block stages its row set only once.
	w := opts.MaxResidentFrames
	blobs := make(map[int][][]byte, len(refs)) // trajectory → window blobs (1 window when not streaming)
	blobsOf := func(ix int) ([][]byte, error) {
		if bs, ok := blobs[ix]; ok {
			return bs, nil
		}
		r := refs[ix]
		var bs [][]byte
		if opts.streaming() {
			for win := 0; win < r.NumWindows(w); win++ {
				blob, err := r.EncodeMDTWindow(win*w, w, 8)
				if err != nil {
					return nil, err
				}
				bs = append(bs, blob)
			}
		} else {
			blob, err := r.EncodeMDTWindow(0, r.NFrames(), 8)
			if err != nil {
				return nil, err
			}
			bs = [][]byte{blob}
		}
		blobs[ix] = bs
		return bs, nil
	}
	descs := make([]pilot.UnitDescription, len(missing))
	for di, bi := range missing {
		b := blocks[bi]
		inputs := make(map[string][]byte)
		shapes := make(map[int][2]int) // trajectory → {nAtoms, nFrames}
		for _, ix := range b.TrajIndices() {
			bs, err := blobsOf(ix)
			if err != nil {
				return nil, err
			}
			for win, blob := range bs {
				inputs[trajFile(ix, win)] = blob
			}
			shapes[ix] = [2]int{refs[ix].NAtoms(), refs[ix].NFrames()}
		}
		descs[di] = pilot.UnitDescription{
			Name:        fmt.Sprintf("psa-block-%d", bi),
			InputFiles:  inputs,
			OutputFiles: []string{"distances.bin", "counters.bin"},
			Fn: func(sandbox string) error {
				// Rebuild each staged trajectory as a stream over its
				// window files: at most one window's frames are decoded at
				// a time, and the streamed kernel never holds more than
				// two windows.
				unitRefs := make(traj.RefEnsemble, len(refs))
				for ix, shape := range shapes {
					ix := ix
					chain := max(shape[1], 1) // staged as one blob unless streaming
					if opts.streaming() {
						chain = w
					}
					r, err := traj.WindowChainRef(fmt.Sprintf("traj-%d", ix), shape[0], shape[1], chain,
						func(win int) ([]byte, error) {
							return os.ReadFile(filepath.Join(sandbox, trajFile(ix, win)))
						})
					if err != nil {
						return err
					}
					unitRefs[ix] = r
				}
				var m engine.Metrics
				unitOpts := opts
				unitOpts.Metrics = &m
				unitOpts.Cache = nil // lookups happened client-side; sandboxes stay isolated
				br, err := ComputeBlockRefs(unitRefs, b, unitOpts)
				if err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(sandbox, "distances.bin"), encodeFloats(br.Values), 0o644); err != nil {
					return err
				}
				snap := m.Snapshot()
				kc := hausdorff.Counters{
					Evaluated: snap.PairsEvaluated, Pruned: snap.PairsPruned, Abandoned: snap.PairsAbandoned,
					NodesVisited: snap.NodesVisited, NodesPruned: snap.NodesPruned,
				}
				st := hausdorff.StreamStats{PeakResidentFrames: snap.PeakResidentFrames, BytesStreamed: snap.BytesStreamed}
				return os.WriteFile(filepath.Join(sandbox, "counters.bin"), encodeCounters(kc, st), 0o644)
			},
		}
	}
	units, err := p.Submit(descs)
	if err != nil {
		return nil, err
	}
	if err := p.Wait(units); err != nil {
		return nil, err
	}
	for ui, u := range units {
		bi := missing[ui]
		raw, ok := u.Output("distances.bin")
		if !ok {
			return nil, fmt.Errorf("psa: unit %d produced no output", u.ID)
		}
		vals, err := decodeFloats(raw)
		if err != nil {
			return nil, fmt.Errorf("psa: unit %d: %w", u.ID, err)
		}
		if want := blocks[bi].TaskPairs(opts.Symmetric); len(vals) != want {
			return nil, fmt.Errorf("psa: unit %d returned %d values, want %d", u.ID, len(vals), want)
		}
		rawKC, ok := u.Output("counters.bin")
		if !ok {
			return nil, fmt.Errorf("psa: unit %d produced no kernel counters", u.ID)
		}
		kc, st, err := decodeCounters(rawKC)
		if err != nil {
			return nil, fmt.Errorf("psa: unit %d: %w", u.ID, err)
		}
		opts.recordKernel(kc)
		opts.recordStream(st)
		results[bi] = BlockResult{Block: blocks[bi], Values: vals, Symmetric: opts.Symmetric}
		if keys != nil && !opts.cancelled() {
			// A completed unit's values are a full kernel result; record
			// them. After a cancellation request units zero-fill instead,
			// so nothing may be recorded.
			opts.Cache.Put(keys[bi], vals, int64(len(vals))*8)
		}
	}
	return Assemble(len(refs), results), nil
}

// trajFile names a staged trajectory window blob inside a unit sandbox
// (window 0 is the whole trajectory when not streaming).
func trajFile(ix, win int) string { return fmt.Sprintf("traj-%04d-w%05d.mdt", ix, win) }

// encodeFloats packs float64 values little-endian.
func encodeFloats(vals []float64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// encodeCounters packs a unit's kernel and streaming accounting as
// seven little-endian uint64s: evaluated, pruned, abandoned, nodes
// visited, nodes pruned, peak resident frames, bytes streamed.
func encodeCounters(kc hausdorff.Counters, st hausdorff.StreamStats) []byte {
	out := make([]byte, 0, 56)
	out = binary.LittleEndian.AppendUint64(out, uint64(kc.Evaluated))
	out = binary.LittleEndian.AppendUint64(out, uint64(kc.Pruned))
	out = binary.LittleEndian.AppendUint64(out, uint64(kc.Abandoned))
	out = binary.LittleEndian.AppendUint64(out, uint64(kc.NodesVisited))
	out = binary.LittleEndian.AppendUint64(out, uint64(kc.NodesPruned))
	out = binary.LittleEndian.AppendUint64(out, uint64(st.PeakResidentFrames))
	out = binary.LittleEndian.AppendUint64(out, uint64(st.BytesStreamed))
	return out
}

// decodeCounters unpacks the counters payload of a pilot unit.
func decodeCounters(b []byte) (hausdorff.Counters, hausdorff.StreamStats, error) {
	if len(b) != 56 {
		return hausdorff.Counters{}, hausdorff.StreamStats{}, fmt.Errorf("psa: counters payload length %d, want 56", len(b))
	}
	kc := hausdorff.Counters{
		Evaluated:    int64(binary.LittleEndian.Uint64(b)),
		Pruned:       int64(binary.LittleEndian.Uint64(b[8:])),
		Abandoned:    int64(binary.LittleEndian.Uint64(b[16:])),
		NodesVisited: int64(binary.LittleEndian.Uint64(b[24:])),
		NodesPruned:  int64(binary.LittleEndian.Uint64(b[32:])),
	}
	st := hausdorff.StreamStats{
		PeakResidentFrames: int64(binary.LittleEndian.Uint64(b[40:])),
		BytesStreamed:      int64(binary.LittleEndian.Uint64(b[48:])),
	}
	return kc, st, nil
}

// decodeFloats unpacks little-endian float64 values.
func decodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("psa: float payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
