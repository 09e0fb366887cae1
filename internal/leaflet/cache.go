package leaflet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"mdtask/internal/blockstore"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// CoordsDigest returns the hex SHA-256 of a coordinate set's content
// (count plus every coordinate's float64 bits) — the content-addressing
// unit of Leaflet tile caching and of the jobs layer's whole-job keys.
func CoordsDigest(coords []linalg.Vec3) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(coords)))
	h.Write(n[:])
	const chunk = 256 // points hashed per buffer fill
	buf := make([]byte, 0, 24*chunk)
	for lo := 0; lo < len(coords); lo += chunk {
		buf = linalg.AppendVec3s(buf[:0], coords[lo:min(lo+chunk, len(coords))])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TileKey returns the content address of one tile's partial result:
// the coordinate digest, the cutoff, the edge kernel (pairwise or the
// tree approach's cell list; they find the same edges, and keying them
// apart means a job only ever recalls its own kernel's result), and the
// tile bounds.
func TileKey(digest string, cutoff float64, tree bool, rlo, rhi, clo, chi int) string {
	return fmt.Sprintf("leaflet-tile|%s|c=%x|tree=%t|%d:%d|%d:%d",
		digest, math.Float64bits(cutoff), tree, rlo, rhi, clo, chi)
}

// TilePartial is the cached value of one tile: its partial connected
// components and the number of edges the kernel discovered (needed so
// warm runs report the same Stats as cold ones). It is also what a
// staged Leaflet unit ships back, as JSON.
type TilePartial struct {
	Comps []graph.Component `json:"comps"`
	Edges int64             `json:"edges"`
}

// SizeBytes reports the payload size used for byte-budget accounting.
func (t TilePartial) SizeBytes() int64 { return graph.ComponentBytes(t.Comps) + 16 }

// WireBytes is the partial's shuffle payload — its component node ids,
// the volume Table 2 reports (engine.Sized).
func (t TilePartial) WireBytes() int64 { return graph.ComponentBytes(t.Comps) }

func tileSizeOf(v any) int64 { return v.(TilePartial).SizeBytes() }

// WithBlockCache makes the per-tile task bodies of the Parallel-CC and
// Tree-Search approaches consult store before running their edge
// kernel, keyed under the given coordinate content digest. Cache lookup
// accounting goes to the executor's sink (hits skip the kernel
// entirely). The broadcast and task-API approaches ship raw edges, not
// per-tile partials, so they have no per-tile unit to cache and ignore
// this option.
func WithBlockCache(store *blockstore.Store, digest string) Option {
	return func(o *runOpts) {
		o.store = store
		o.coordsDigest = digest
	}
}

// tilePartial computes (or recalls) one tile's partial components. The
// kernel never aborts mid-tile, so any value that reaches the store is
// complete.
func (o runOpts) tilePartial(coords []linalg.Vec3, b block, cutoff float64, useTree bool) TilePartial {
	span := o.tracer.StartChild(o.traceParent, "leaflet.tile")
	span.SetAttr("tile", fmt.Sprintf("[%d:%d)x[%d:%d)", b.rows.lo, b.rows.hi, b.cols.lo, b.cols.hi))
	defer span.End()
	compute := func() TilePartial {
		edges := blockEdges(coords, b, cutoff, useTree)
		return TilePartial{Comps: graph.PartialComponents(edges), Edges: int64(len(edges))}
	}
	if o.store == nil || o.coordsDigest == "" {
		return compute()
	}
	key := TileKey(o.coordsDigest, cutoff, useTree, b.rows.lo, b.rows.hi, b.cols.lo, b.cols.hi)
	doSpan := o.tracer.StartChild(span.Context(), "cache.do")
	val, hit, _ := o.store.Do(key, tileSizeOf, func() (any, error) {
		return compute(), nil
	})
	doSpan.End()
	tp := val.(TilePartial)
	span.SetAttr("cache_hit", strconv.FormatBool(hit))
	if hit {
		o.metrics.AddBlockCache(1, 0, tp.SizeBytes())
	} else {
		o.metrics.AddBlockCache(0, 1, 0)
	}
	return tp
}
