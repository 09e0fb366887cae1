package stage

import (
	"encoding/json"
	"fmt"

	"mdtask/internal/hausdorff"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

const kindPSA = "psa"

// psaDesc describes one PSA unit: a block of the distance matrix, its
// schedule and kernel, and the shape of each trajectory it reads — its
// rows, then the columns a diagonal block does not share — from which
// the body rebuilds its trajectory handles.
type psaDesc struct {
	I0        int       `json:"i0"`
	I1        int       `json:"i1"`
	J0        int       `json:"j0"`
	J1        int       `json:"j1"`
	Symmetric bool      `json:"symmetric,omitempty"`
	Method    string    `json:"method,omitempty"`
	Window    int       `json:"window,omitempty"`
	Trajs     []psaTraj `json:"trajs"`
}

type psaTraj struct {
	NAtoms  int `json:"natoms"`
	NFrames int `json:"nframes"`
}

func (d psaDesc) block() psa.Block { return psa.Block{I0: d.I0, I1: d.I1, J0: d.J0, J1: d.J1} }

// trajBlob names window win of trajectory ix (window 0 is the whole
// trajectory when the job is not streamed).
func trajBlob(ix, win int) string { return fmt.Sprintf("traj-%04d-w%05d.mdt", ix, win) }

type stagedPSA struct {
	refs    traj.RefEnsemble
	sym     bool
	blocks  []psa.Block
	units   []Unit
	results []psa.BlockResult
	// blobs maps each input name to its trajectory and frame range.
	blobs map[string]frameRange
}

// frameRange is frames [start, start+n) of trajectory ix.
type frameRange struct{ ix, start, n int }

// PSA cuts an all-pairs Hausdorff job into one unit per block of
// psa.Partition(len(refs), n1, opts.Symmetric). Of opts only
// Symmetric, Method, MaxResidentFrames and Cache apply: with
// MaxResidentFrames set every trajectory ships as window blobs the
// streamed kernel reads, otherwise as one blob; with Cache set the
// units carry psa.BlockKey addresses (a block over an undigestable
// trajectory runs uncached).
func PSA(refs traj.RefEnsemble, n1 int, opts psa.Opts) (Plan, error) {
	if err := refs.Validate(); err != nil {
		return nil, err
	}
	blocks, err := psa.Partition(len(refs), n1, opts.Symmetric)
	if err != nil {
		return nil, err
	}
	window := opts.MaxResidentFrames
	p := &stagedPSA{
		refs:    refs,
		sym:     opts.Symmetric,
		blocks:  blocks,
		units:   make([]Unit, len(blocks)),
		results: make([]psa.BlockResult, len(blocks)),
		blobs:   make(map[string]frameRange),
	}
	for i, b := range blocks {
		d := psaDesc{I0: b.I0, I1: b.I1, J0: b.J0, J1: b.J1,
			Symmetric: opts.Symmetric, Method: opts.Method.String(), Window: window}
		u := Unit{Kind: kindPSA, Stream: window > 0}
		for _, ix := range b.TrajIndices() {
			r := refs[ix]
			d.Trajs = append(d.Trajs, psaTraj{NAtoms: r.NAtoms(), NFrames: r.NFrames()})
			// A trajectory ships as count blobs of size frames each (the
			// last one shorter): one blob unless the job is streamed.
			size, count := max(r.NFrames(), 1), 1
			if window > 0 {
				size, count = window, r.NumWindows(window)
			}
			for win := range count {
				name := trajBlob(ix, win)
				u.Inputs = append(u.Inputs, name)
				p.blobs[name] = frameRange{ix, win * size, size}
			}
		}
		if u.Desc, err = json.Marshal(d); err != nil {
			return nil, err
		}
		if opts.Cache != nil {
			u.Key, _ = psa.BlockKey(refs, b, opts.Symmetric)
		}
		p.units[i] = u
	}
	return p, nil
}

func (p *stagedPSA) Units() []Unit { return p.units }

func (p *stagedPSA) Blob(name string) ([]byte, error) {
	w, ok := p.blobs[name]
	if !ok {
		return nil, fmt.Errorf("stage: the PSA job has no input %q", name)
	}
	return p.refs[w.ix].EncodeMDTWindow(w.start, w.n, 8)
}

func (p *stagedPSA) Record(i int, v any) {
	p.results[i] = psa.BlockResult{Block: p.blocks[i], Values: v.([]float64), Symmetric: p.sym}
}

func (p *stagedPSA) Assemble() any { return psa.Assemble(len(p.refs), p.results) }

// execPSA is the PSA unit body: it rebuilds the block's trajectories as
// a compact ensemble of window chains over the unit's blobs — rows, then
// columns unless the block is diagonal — re-addresses the block into
// it, and runs psa.ComputeBlockRefs, the task body of every engine. A
// chain decodes one blob at a time, so a streamed unit holds at most two
// windows of frames.
func execPSA(raw json.RawMessage, env Env) ([]byte, error) {
	var d psaDesc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("stage: PSA unit description: %w", err)
	}
	method, err := hausdorff.ParseMethod(d.Method)
	if err != nil {
		return nil, err
	}
	b := d.block()
	rows, cols := b.I1-b.I0, b.J1-b.J0
	local := psa.Block{I1: rows, J0: 0, J1: rows}
	if !b.Diagonal() {
		local.J0, local.J1 = rows, rows+cols
	}
	if min(b.I0, b.J0, rows, cols) < 0 || local.J1 < 0 || max(local.I1, local.J1) != len(d.Trajs) {
		return nil, fmt.Errorf("stage: PSA block %+v does not fit its %d trajectory shapes", b, len(d.Trajs))
	}
	refs := make(traj.RefEnsemble, len(d.Trajs))
	for p, s := range d.Trajs {
		ix := b.I0 + p
		if p >= rows {
			ix = b.J0 + p - rows
		}
		size := d.Window
		if size <= 0 {
			size = max(s.NFrames, 1)
		}
		// One window must fit one blob, and so must the kernel's per-frame
		// state (8 bytes a frame).
		frames := int64(min(size, max(s.NFrames, 1)))
		if limit := env.MaxBlobBytes; limit > 0 && (int64(s.NFrames) > limit/8 || int64(s.NAtoms) > limit/24/frames) {
			return nil, fmt.Errorf("stage: trajectory %d of %d atoms × %d frames exceeds the %d-byte blob limit",
				ix, s.NAtoms, s.NFrames, limit)
		}
		r, err := traj.WindowChainRef(fmt.Sprintf("traj-%d", ix), s.NAtoms, s.NFrames, size,
			func(win int) ([]byte, error) { return env.Fetch(trajBlob(ix, win)) })
		if err != nil {
			return nil, err
		}
		refs[p] = r
	}
	br, err := psa.ComputeBlockRefs(refs, local, psa.Opts{
		Symmetric: d.Symmetric, Method: method, MaxResidentFrames: d.Window, Env: env.Env,
	})
	if err != nil {
		return nil, err
	}
	return linalg.AppendFloats(make([]byte, 0, 8*len(br.Values)), br.Values), nil
}

// decodePSA reads a block's values: little-endian float64 bit patterns,
// in ComputeBlockRefs' order.
func decodePSA(payload []byte) (any, error) { return linalg.DecodeFloats(payload) }

func checkPSA(raw json.RawMessage, v any) (int64, error) {
	vals, ok := v.([]float64)
	if !ok {
		return 0, fmt.Errorf("stage: %T is not a PSA block", v)
	}
	var d psaDesc
	if err := json.Unmarshal(raw, &d); err != nil {
		return 0, err
	}
	if want := d.block().TaskPairs(d.Symmetric); len(vals) != want {
		return 0, fmt.Errorf("stage: PSA block has %d values, want %d", len(vals), want)
	}
	return int64(len(vals)) * 8, nil
}
