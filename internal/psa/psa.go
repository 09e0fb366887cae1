// Package psa implements Path Similarity Analysis (the paper's §2.1.1,
// Algorithm 1): the all-pairs Hausdorff distance matrix over an ensemble
// of trajectories, parallelized with the 2-D output partitioning of
// Algorithm 2. PSA is embarrassingly parallel; each task computes one
// block of the distance matrix serially (ComputeBlockRefs). The analysis
// is written once — Run maps the block tasks over an engine.Executor, so
// Spark, Dask, MPI and the serial loop (§4.2) share one code path — plus
// RunPilotRefs for the pilot engine, whose units exchange staged files
// rather than closures. SerialRefs is the blockless reference.
package psa

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/obs"
	"mdtask/internal/traj"
)

// Matrix is a dense symmetric N×N distance matrix.
type Matrix struct {
	N    int
	Data []float64 // row-major
}

// NewMatrix allocates an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Opts selects how the distance matrix is scheduled and computed.
type Opts struct {
	// Symmetric exploits H(A,B) = H(B,A): only diagonal and
	// upper-triangle blocks are scheduled, diagonal blocks skip the zero
	// self-distances and the j<i mirror pairs, and Assemble reflects
	// every value into the lower triangle. Roughly halves the kernel
	// work versus the paper-faithful full N×N schedule.
	Symmetric bool
	// Method selects the Hausdorff inner-loop algorithm.
	Method hausdorff.Method
	// Cancel, when non-nil, is polled cooperatively at block boundaries.
	// Once it reports true the remaining blocks are skipped (their values
	// are left zero), so a run drains quickly; the caller is responsible
	// for discarding the partial matrix. Serial additionally polls it
	// between rows.
	Cancel func() bool
	// Metrics, when non-nil, receives the Hausdorff kernel's frame-pair
	// counters (evaluated / pruned / abandoned) and the streaming and
	// block-cache accounting of every task body. Run points it at its
	// executor's sink; the staged runners and direct ComputeBlockRefs
	// callers set it themselves.
	Metrics *engine.Metrics
	// MaxResidentFrames, when positive, switches every task body to the
	// streamed window kernel: trajectories are consumed as bounded frame
	// windows (at most MaxResidentFrames frames per window, two windows
	// resident per comparison) instead of being fully materialized, so a
	// task's peak frame residency is ≤ 2 × MaxResidentFrames whatever
	// the ensemble size. Results are bit-identical to the in-memory path
	// for every method and schedule; the price is re-decoding the inner
	// trajectory of each comparison once per outer window, which the
	// BytesStreamed metric accounts. Zero keeps the fully-resident path.
	MaxResidentFrames int
	// Tracer and TraceParent, when set, give every task body a span:
	// each block records a psa.block span (child of TraceParent) with
	// its geometry and cache outcome, and cached lookups record a
	// nested cache.do span covering the store interaction. A nil Tracer
	// disables tracing at the cost of one nil check per block.
	Tracer      *obs.Tracer
	TraceParent obs.SpanContext
	// KernelHist, when non-nil, observes each block kernel's wall time
	// in seconds (cache hits do not run a kernel and are not observed).
	KernelHist *obs.Histogram
	// Cache, when non-nil, is the content-addressed block store every
	// task body consults before running its kernel: a block whose key
	// (BlockKey: layout × trajectory content digests) is already stored
	// skips its kernel entirely and counts a BlockCacheHits metric, and
	// a freshly computed complete block is recorded for later jobs.
	// Concurrent identical blocks are computed once (single flight), and
	// cancelled blocks are never recorded. Nil keeps the uncached path —
	// the one-shot CLI default.
	Cache *blockstore.Store
}

// streaming reports whether the windowed out-of-core kernel is
// selected.
func (o Opts) streaming() bool { return o.MaxResidentFrames > 0 }

// recordStream folds a task's streaming accounting into the metrics
// sink.
func (o Opts) recordStream(st hausdorff.StreamStats) {
	if o.Metrics != nil {
		o.Metrics.ObservePeakResident(st.PeakResidentFrames)
		o.Metrics.AddStreamed(st.BytesStreamed)
	}
}

// recordKernel folds a block's kernel counters into the metrics sink.
func (o Opts) recordKernel(c hausdorff.Counters) {
	if o.Metrics != nil {
		o.Metrics.AddPairs(c.Evaluated, c.Pruned, c.Abandoned)
		o.Metrics.AddNodes(c.NodesVisited, c.NodesPruned)
	}
}

// cancelled reports whether a cooperative cancellation was requested.
func (o Opts) cancelled() bool { return o.Cancel != nil && o.Cancel() }

// recordBlockCache folds block-store lookup accounting into the metrics
// sink.
func (o Opts) recordBlockCache(hits, misses, bytesSaved int64) {
	if o.Metrics != nil {
		o.Metrics.AddBlockCache(hits, misses, bytesSaved)
	}
}

// Block is one task of the 2-D partitioning: the sub-matrix
// [I0,I1) × [J0,J1) of the output distance matrix (Algorithm 2: an
// n1×n1 group of pairwise comparisons executed serially).
type Block struct {
	I0, I1, J0, J1 int
}

// Pairs returns the number of trajectory comparisons in the block.
func (b Block) Pairs() int { return (b.I1 - b.I0) * (b.J1 - b.J0) }

// Diagonal reports whether the block lies on the matrix diagonal
// (identical row and column ranges).
func (b Block) Diagonal() bool { return b.I0 == b.J0 && b.I1 == b.J1 }

// TrajIndices lists the distinct trajectory indices the block reads:
// its row range plus whatever of its column range does not overlap it.
// Pilot staging and fleet leases both derive their input sets from it.
func (b Block) TrajIndices() []int {
	out := make([]int, 0, (b.I1-b.I0)+(b.J1-b.J0))
	for i := b.I0; i < b.I1; i++ {
		out = append(out, i)
	}
	for j := b.J0; j < b.J1; j++ {
		if j < b.I0 || j >= b.I1 {
			out = append(out, j)
		}
	}
	return out
}

// TaskPairs returns the number of Hausdorff evaluations a block costs
// under the given scheduling: symmetric diagonal blocks compute only
// their strict upper triangle.
func (b Block) TaskPairs(symmetric bool) int {
	if symmetric && b.Diagonal() {
		n := b.I1 - b.I0
		return n * (n - 1) / 2
	}
	return b.Pairs()
}

// Partition2D maps the N² distances onto (N/n1)² block tasks
// (Algorithm 2). n1 must be a positive divisor of N.
func Partition2D(n, n1 int) ([]Block, error) {
	if n1 <= 0 || n%n1 != 0 {
		return nil, fmt.Errorf("psa: group size %d must be a positive divisor of N=%d", n1, n)
	}
	k := n / n1
	blocks := make([]Block, 0, k*k)
	for bi := 0; bi < k; bi++ {
		for bj := 0; bj < k; bj++ {
			blocks = append(blocks, Block{
				I0: bi * n1, I1: (bi + 1) * n1,
				J0: bj * n1, J1: (bj + 1) * n1,
			})
		}
	}
	return blocks, nil
}

// PartitionTriangular maps the distance matrix onto only its diagonal
// and upper-triangle blocks — (N/n1)·(N/n1+1)/2 tasks instead of
// Algorithm 2's (N/n1)². Each omitted lower-triangle block is recovered
// by Assemble mirroring its transpose. n1 must be a positive divisor
// of N.
func PartitionTriangular(n, n1 int) ([]Block, error) {
	if n1 <= 0 || n%n1 != 0 {
		return nil, fmt.Errorf("psa: group size %d must be a positive divisor of N=%d", n1, n)
	}
	k := n / n1
	blocks := make([]Block, 0, k*(k+1)/2)
	for bi := 0; bi < k; bi++ {
		for bj := bi; bj < k; bj++ {
			blocks = append(blocks, Block{
				I0: bi * n1, I1: (bi + 1) * n1,
				J0: bj * n1, J1: (bj + 1) * n1,
			})
		}
	}
	return blocks, nil
}

// Partition returns the block schedule for the given options: the
// triangular schedule when symmetric, Algorithm 2's full grid otherwise.
func Partition(n, n1 int, symmetric bool) ([]Block, error) {
	if symmetric {
		return PartitionTriangular(n, n1)
	}
	return Partition2D(n, n1)
}

// BlockResult carries one computed block back to the assembler.
type BlockResult struct {
	Block Block
	// Values is row-major over the block: (I1-I0)×(J1-J0) entries —
	// except for a Symmetric diagonal block, where it holds only the
	// strict upper triangle packed row-major (i ranging over rows,
	// j over i+1..J1).
	Values []float64
	// Symmetric marks a block computed under the symmetry-aware
	// schedule: Assemble mirrors its values into the transposed
	// position, and a diagonal block's Values are triangle-packed.
	Symmetric bool
}

// ComputeBlockRefs evaluates the Hausdorff distances of one block
// serially: the task body every engine runs. Under opts.Symmetric a
// diagonal block computes only its strict upper triangle — the zero
// self-distances and the mirror pairs are skipped. With
// opts.MaxResidentFrames > 0 each comparison holds at most two windows
// resident (DistanceStreamed); otherwise the block's trajectories are
// materialized once each and the in-memory kernels run. Cancellation is
// polled between comparisons; the remaining values of a cancelled block
// are left zero.
//
// With opts.Cache set the block store is consulted first: on a hit the
// stored values are returned without running any kernel (no frame-pair
// counters accrue; BlockCacheHits does); on a miss the block computes
// under single-flight de-duplication and, if it ran to completion, is
// recorded for later lookups. Cancelled (zero-filled) blocks are never
// recorded.
func ComputeBlockRefs(refs traj.RefEnsemble, b Block, opts Opts) (BlockResult, error) {
	span := opts.Tracer.StartChild(opts.TraceParent, "psa.block")
	span.SetAttr("block", fmt.Sprintf("[%d:%d)x[%d:%d)", b.I0, b.I1, b.J0, b.J1))
	defer span.End()
	// Nested psa.block spans (the cache.do child) parent under this one.
	opts.TraceParent = span.Context()

	res := BlockResult{Block: b, Symmetric: opts.Symmetric}
	if opts.Cache != nil {
		if key, kerr := BlockKey(refs, b, opts.Symmetric); kerr == nil {
			doSpan := opts.Tracer.StartChild(span.Context(), "cache.do")
			val, hit, err := opts.Cache.Do(key, blockValueBytes, func() (any, error) {
				vals, complete, cerr := computeBlockVals(refs, b, opts)
				if cerr != nil {
					return nil, cerr
				}
				if !complete {
					return vals, errIncompleteBlock
				}
				return vals, nil
			})
			doSpan.SetAttr("hit", strconv.FormatBool(hit))
			doSpan.End()
			span.SetAttr("cache_hit", strconv.FormatBool(hit))
			switch {
			case errors.Is(err, errIncompleteBlock):
				// Cancelled mid-block: pass the zero-filled values through
				// uncached, as the contract above requires.
			case err != nil:
				return BlockResult{}, err
			}
			vals := val.([]float64)
			if hit {
				opts.recordBlockCache(1, 0, int64(len(vals))*8)
			} else {
				opts.recordBlockCache(0, 1, 0)
			}
			res.Values = vals
			return res, nil
		}
		// A ref that cannot be digested (e.g. an unreadable source) still
		// computes; the kernel will surface any real I/O error itself.
	}
	vals, _, err := computeBlockVals(refs, b, opts)
	if err != nil {
		return BlockResult{}, err
	}
	res.Values = vals
	return res, nil
}

// computeBlockVals runs the block's kernel loop, reporting whether every
// pair was covered (complete=false means cancellation zero-filled the
// tail, which downstream shape checks still accept but the block store
// must not record).
func computeBlockVals(refs traj.RefEnsemble, b Block, opts Opts) (vals []float64, complete bool, err error) {
	vals = make([]float64, 0, b.TaskPairs(opts.Symmetric))
	var (
		kc hausdorff.Counters
		st hausdorff.StreamStats
	)
	if opts.KernelHist != nil {
		start := time.Now()
		defer func() { opts.KernelHist.Observe(time.Since(start).Seconds()) }()
	}
	defer func() {
		opts.recordKernel(kc)
		opts.recordStream(st)
	}()

	var loaded map[int]*traj.Trajectory
	load := func(ix int) (*traj.Trajectory, error) {
		if t, ok := loaded[ix]; ok {
			return t, nil
		}
		t, err := refs[ix].Load()
		if err != nil {
			return nil, err
		}
		if loaded == nil {
			loaded = make(map[int]*traj.Trajectory)
		}
		loaded[ix] = t
		return t, nil
	}

	skipMirror := opts.Symmetric && b.Diagonal()
	for i := b.I0; i < b.I1; i++ {
		j0 := b.J0
		if skipMirror {
			j0 = i + 1
		}
		for j := j0; j < b.J1; j++ {
			if opts.cancelled() {
				// Zero-fill the rest so downstream shape checks hold; the
				// job layer discards the matrix of a cancelled run.
				return append(vals, make([]float64, b.TaskPairs(opts.Symmetric)-len(vals))...), false, nil
			}
			var d float64
			if opts.streaming() {
				var err error
				d, err = hausdorff.DistanceStreamed(refs[i], refs[j], opts.MaxResidentFrames, opts.Method, &kc, &st)
				if err != nil {
					return nil, false, err
				}
			} else {
				ti, err := load(i)
				if err != nil {
					return nil, false, err
				}
				tj, err := load(j)
				if err != nil {
					return nil, false, err
				}
				d = hausdorff.DistanceCounted(ti, tj, opts.Method, &kc)
			}
			vals = append(vals, d)
		}
	}
	return vals, true, nil
}

// WireBytes is the block's payload size when an engine moves it between
// workers (engine.Sized).
func (r BlockResult) WireBytes() int64 { return int64(len(r.Values)) * 8 }

// Run computes PSA on any engine: Partition → one ComputeBlockRefs task
// per block, mapped by the executor → Assemble. This is the whole
// analysis; what differs between Spark, Dask and MPI (§4.2) lives in
// the executor. Kernel counters go to the executor's sink, whatever
// opts.Metrics says.
func Run(ex engine.Executor, refs traj.RefEnsemble, n1 int, opts Opts) (*Matrix, error) {
	blocks, err := Partition(len(refs), n1, opts.Symmetric)
	if err != nil {
		return nil, err
	}
	opts.Metrics = ex.Metrics()
	results, err := engine.Map(ex, len(blocks), nil, func(i int) (BlockResult, error) {
		return ComputeBlockRefs(refs, blocks[i], opts)
	})
	if err != nil {
		return nil, err
	}
	return Assemble(len(refs), results), nil
}

// Assemble writes block results into the full matrix, mirroring
// symmetric results into the lower triangle.
func Assemble(n int, results []BlockResult) *Matrix {
	m := NewMatrix(n)
	for _, r := range results {
		b := r.Block
		switch {
		case r.Symmetric:
			// Values are packed in ComputeBlockRefs' iteration order:
			// diagonal blocks hold only their strict upper triangle.
			skipMirror := b.Diagonal()
			k := 0
			for i := b.I0; i < b.I1; i++ {
				j0 := b.J0
				if skipMirror {
					j0 = i + 1
				}
				for j := j0; j < b.J1; j++ {
					v := r.Values[k]
					k++
					m.Set(i, j, v)
					m.Set(j, i, v)
				}
			}
		default:
			w := b.J1 - b.J0
			for i := b.I0; i < b.I1; i++ {
				row := r.Values[(i-b.I0)*w : (i-b.I0+1)*w]
				copy(m.Data[i*n+b.J0:i*n+b.J1], row)
			}
		}
	}
	return m
}

// SerialRefs computes the full PSA distance matrix on one goroutine as a
// plain pair loop, no blocks: the reference implementation Run is
// validated against on every engine. Under opts.Symmetric each
// unordered pair is evaluated once and mirrored; the result is
// bit-identical to the full scan because the Hausdorff distance is
// exactly symmetric. With opts.MaxResidentFrames set it is the
// out-of-core reference (two windows resident per comparison),
// otherwise handles are materialized and the in-memory kernels run.
func SerialRefs(refs traj.RefEnsemble, opts Opts) (*Matrix, error) {
	if err := refs.Validate(); err != nil {
		return nil, err
	}
	out := NewMatrix(len(refs))
	var (
		kc hausdorff.Counters
		st hausdorff.StreamStats
	)
	defer func() {
		opts.recordKernel(kc)
		opts.recordStream(st)
	}()
	var ens traj.Ensemble
	if !opts.streaming() {
		loaded, err := refs.Load()
		if err != nil {
			return nil, err
		}
		if err := loaded.Validate(); err != nil {
			return nil, err
		}
		ens = loaded
	}
	dist := func(i, j int) (float64, error) {
		if opts.streaming() {
			return hausdorff.DistanceStreamed(refs[i], refs[j], opts.MaxResidentFrames, opts.Method, &kc, &st)
		}
		return hausdorff.DistanceCounted(ens[i], ens[j], opts.Method, &kc), nil
	}
	if opts.Symmetric {
		for i := range refs {
			if opts.cancelled() {
				return out, nil
			}
			for j := i + 1; j < len(refs); j++ {
				d, err := dist(i, j)
				if err != nil {
					return nil, err
				}
				out.Set(i, j, d)
				out.Set(j, i, d)
			}
		}
		return out, nil
	}
	for i := range refs {
		if opts.cancelled() {
			return out, nil
		}
		for j := range refs {
			d, err := dist(i, j)
			if err != nil {
				return nil, err
			}
			out.Set(i, j, d)
		}
	}
	return out, nil
}

// DefaultGroupSize picks the largest n1 dividing n with at least
// wantTasks = (n/n1)² tasks, the heuristic the runners use to generate
// one task per core (§4.2: "one task per core").
func DefaultGroupSize(n, wantTasks int) int {
	best := 1
	for n1 := 1; n1 <= n; n1++ {
		if n%n1 != 0 {
			continue
		}
		k := n / n1
		if k*k >= wantTasks && n1 > best {
			best = n1
		}
	}
	return best
}
