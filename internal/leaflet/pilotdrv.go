package leaflet

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/pilot"
)

// RunPilot executes the Leaflet Finder on the pilot engine using
// Approach 2 (the configuration the paper evaluates in Figure 9): one
// Compute-Unit per live 2-D block, each unit staging its two coordinate
// chunks in as files, writing its edge list out as a file, and the
// client computing the connected components after all units finish. All
// intermediate data moves through the filesystem, as RADICAL-Pilot's
// architecture requires (§3.3, Table 1: "no shuffle, filesystem-based
// communication").
func RunPilot(p *pilot.Pilot, coords []linalg.Vec3, cutoff float64, nTasks int, opts ...Option) (*Result, error) {
	o := gatherOpts(opts)
	n := len(coords)
	blocks := liveBlocks2D(coords, cutoff, nTasks)
	descs := make([]pilot.UnitDescription, len(blocks))
	for i, b := range blocks {
		b := b
		inputs := map[string][]byte{
			"rows.bin": encodeCoords(coords[b.rows.lo:b.rows.hi]),
		}
		if b.rows != b.cols {
			inputs["cols.bin"] = encodeCoords(coords[b.cols.lo:b.cols.hi])
		}
		descs[i] = pilot.UnitDescription{
			Name:        fmt.Sprintf("leaflet-block-%d", i),
			InputFiles:  inputs,
			OutputFiles: []string{"edges.bin"},
			Fn: func(sandbox string) error {
				if o.cancelled() {
					// Emit an empty edge file; the job layer discards the
					// result of a cancelled run.
					return os.WriteFile(filepath.Join(sandbox, "edges.bin"), nil, 0o644)
				}
				rows, err := readCoords(filepath.Join(sandbox, "rows.bin"))
				if err != nil {
					return err
				}
				var edges []graph.Edge
				if b.rows == b.cols {
					for _, e := range linalg.PairsWithinSelf(rows, cutoff) {
						edges = append(edges, graph.Edge{
							U: e[0] + int32(b.rows.lo),
							V: e[1] + int32(b.rows.lo),
						})
					}
				} else {
					cols, err := readCoords(filepath.Join(sandbox, "cols.bin"))
					if err != nil {
						return err
					}
					for _, e := range linalg.PairsWithin(rows, cols, cutoff) {
						edges = append(edges, graph.Edge{
							U: e[0] + int32(b.rows.lo),
							V: e[1] + int32(b.cols.lo),
						})
					}
				}
				return os.WriteFile(filepath.Join(sandbox, "edges.bin"), encodeEdges(edges), 0o644)
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
	var edges []graph.Edge
	for _, u := range units {
		raw, ok := u.Output("edges.bin")
		if !ok {
			return nil, fmt.Errorf("leaflet: unit %d produced no edge file", u.ID)
		}
		es, err := decodeEdges(raw)
		if err != nil {
			return nil, fmt.Errorf("leaflet: unit %d: %w", u.ID, err)
		}
		edges = append(edges, es...)
	}
	return finish(graph.ComponentsUnionFind(n, edges), Stats{
		Tasks:        len(blocks),
		Edges:        int64(len(edges)),
		ShuffleBytes: graph.EdgeBytes(len(edges)), // via the filesystem
	}), nil
}

// encodeCoords packs points as little-endian float64 triples.
func encodeCoords(pts []linalg.Vec3) []byte {
	out := make([]byte, 0, len(pts)*24)
	for _, p := range pts {
		for k := 0; k < 3; k++ {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p[k]))
		}
	}
	return out
}

// readCoords loads points written by encodeCoords.
func readCoords(path string) ([]linalg.Vec3, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%24 != 0 {
		return nil, fmt.Errorf("leaflet: coordinate file %s has odd length %d", path, len(b))
	}
	out := make([]linalg.Vec3, len(b)/24)
	for i := range out {
		for k := 0; k < 3; k++ {
			out[i][k] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*24+k*8:]))
		}
	}
	return out, nil
}

// encodeEdges packs edges as little-endian int32 pairs.
func encodeEdges(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*8)
	for _, e := range edges {
		out = binary.LittleEndian.AppendUint32(out, uint32(e.U))
		out = binary.LittleEndian.AppendUint32(out, uint32(e.V))
	}
	return out
}

// decodeEdges unpacks edges written by encodeEdges.
func decodeEdges(b []byte) ([]graph.Edge, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("leaflet: edge payload length %d not a multiple of 8", len(b))
	}
	out := make([]graph.Edge, len(b)/8)
	for i := range out {
		out[i].U = int32(binary.LittleEndian.Uint32(b[i*8:]))
		out[i].V = int32(binary.LittleEndian.Uint32(b[i*8+4:]))
	}
	return out, nil
}
