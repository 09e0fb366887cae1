package stage

import (
	"encoding/json"
	"fmt"
	"slices"

	"mdtask/internal/graph"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
)

const kindLeaflet = "leaflet"

// leafletDesc describes one Leaflet unit: a tile of the n-atom
// comparison space, the cutoff and the edge kernel.
type leafletDesc struct {
	RLo    int     `json:"rlo"`
	RHi    int     `json:"rhi"`
	CLo    int     `json:"clo"`
	CHi    int     `json:"chi"`
	Cutoff float64 `json:"cutoff"`
	Tree   bool    `json:"tree,omitempty"`
	NAtoms int     `json:"natoms"`
}

// chunkBlob names the coordinates of atoms [lo, hi).
func chunkBlob(lo, hi int) string { return fmt.Sprintf("atoms-%d-%d.bin", lo, hi) }

type stagedLeaflet struct {
	coords  []linalg.Vec3
	units   []Unit
	chunks  map[string][2]int // input name → atom range
	parts   [][]graph.Component
	edges   int64
	shuffle int64
}

// Leaflet cuts a Leaflet Finder job into one unit per tile of
// leaflet.Tiles(coords, cutoff, maxTasks, workers, tree): each reads its
// row and column chunks and stages out the tile's partial components
// (tree selects the cell-list kernel and its cost plan for workers
// workers), so only components cross the transport whatever the
// approach. Its units carry no key: the store holds Leaflet results
// only as whole jobs.
func Leaflet(coords []linalg.Vec3, cutoff float64, maxTasks, workers int, tree bool) (Plan, error) {
	if len(coords) == 0 {
		return nil, fmt.Errorf("stage: empty coordinate set")
	}
	if cutoff <= 0 {
		return nil, fmt.Errorf("stage: cutoff must be positive, got %g", cutoff)
	}
	tiles := leaflet.Tiles(coords, cutoff, maxTasks, workers, tree)
	p := &stagedLeaflet{coords: coords, units: make([]Unit, len(tiles)),
		chunks: make(map[string][2]int), parts: make([][]graph.Component, len(tiles))}
	for i, t := range tiles {
		desc, err := json.Marshal(leafletDesc{RLo: t.RLo, RHi: t.RHi, CLo: t.CLo, CHi: t.CHi,
			Cutoff: cutoff, Tree: tree, NAtoms: len(coords)})
		if err != nil {
			return nil, err
		}
		u := Unit{Kind: kindLeaflet, Desc: desc}
		for _, c := range [][2]int{{t.RLo, t.RHi}, {t.CLo, t.CHi}} {
			name := chunkBlob(c[0], c[1])
			if !slices.Contains(u.Inputs, name) { // a diagonal tile reads one chunk
				u.Inputs = append(u.Inputs, name)
				p.chunks[name] = c
			}
		}
		p.units[i] = u
	}
	return p, nil
}

func (p *stagedLeaflet) Units() []Unit { return p.units }

func (p *stagedLeaflet) Blob(name string) ([]byte, error) {
	c, ok := p.chunks[name]
	if !ok {
		return nil, fmt.Errorf("stage: the Leaflet job has no input %q", name)
	}
	return linalg.AppendVec3s(make([]byte, 0, 24*(c[1]-c[0])), p.coords[c[0]:c[1]]), nil
}

func (p *stagedLeaflet) Record(i int, v any) {
	tp := v.(leaflet.TilePartial)
	p.parts[i] = tp.Comps
	p.edges += tp.Edges
	p.shuffle += graph.ComponentBytes(tp.Comps)
}

func (p *stagedLeaflet) Assemble() any {
	return leaflet.FromPartials(len(p.coords), p.parts, leaflet.Stats{
		Tasks: len(p.units), Edges: p.edges, ShuffleBytes: p.shuffle,
	})
}

// execLeaflet is the Leaflet unit body: leaflet.ChunkPartial over the
// tile's row and column chunks, staged out as JSON.
func execLeaflet(raw json.RawMessage, env Env) ([]byte, error) {
	var d leafletDesc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("stage: Leaflet unit description: %w", err)
	}
	t := leaflet.BlockSpec{RLo: d.RLo, RHi: d.RHi, CLo: d.CLo, CHi: d.CHi}
	if err := t.Valid(d.NAtoms); err != nil {
		return nil, err
	}
	rows, err := fetchChunk(env, t.RLo, t.RHi)
	if err != nil {
		return nil, err
	}
	cols := rows
	if !t.Diagonal() {
		if cols, err = fetchChunk(env, t.CLo, t.CHi); err != nil {
			return nil, err
		}
	}
	return json.Marshal(leaflet.ChunkPartial(env.Env, rows, cols, t, d.Cutoff, d.Tree))
}

// fetchChunk reads the coordinates of atoms [lo, hi).
func fetchChunk(env Env, lo, hi int) ([]linalg.Vec3, error) {
	blob, err := env.Fetch(chunkBlob(lo, hi))
	if err != nil {
		return nil, err
	}
	pts, err := linalg.DecodeVec3s(blob)
	if err != nil {
		return nil, err
	}
	if len(pts) != hi-lo {
		return nil, fmt.Errorf("stage: chunk %s holds %d atoms", chunkBlob(lo, hi), len(pts))
	}
	return pts, nil
}

func decodeLeaflet(payload []byte) (any, error) {
	var tp leaflet.TilePartial
	if err := json.Unmarshal(payload, &tp); err != nil {
		return nil, fmt.Errorf("stage: Leaflet partial: %w", err)
	}
	return tp, nil
}

// checkLeaflet refuses any partial the job cannot fold: a worker's
// components feed FromPartials' union-find, which indexes by atom, so
// they must be canonical components of the job's atoms
// (graph.CheckComponents), and its edge count feeds the job's Stats. A
// Leaflet unit has no key, so it takes no room in the store.
func checkLeaflet(raw json.RawMessage, v any) (int64, error) {
	tp, ok := v.(leaflet.TilePartial)
	if !ok {
		return 0, fmt.Errorf("stage: %T is not a Leaflet tile partial", v)
	}
	var d leafletDesc
	if err := json.Unmarshal(raw, &d); err != nil {
		return 0, err
	}
	if tp.Edges < 0 {
		return 0, fmt.Errorf("stage: Leaflet partial reports %d edges", tp.Edges)
	}
	if err := graph.CheckComponents(d.NAtoms, tp.Comps); err != nil {
		return 0, err
	}
	return 0, nil
}
