package mpi

// Collectives: every rank of the communicator must call the same
// collective with compatible arguments, as in MPI.

// relRank maps rank onto the tree rooted at root.
func relRank(rank, root, size int) int { return (rank - root + size) % size }

func absRank(rel, root, size int) int { return (rel + root) % size }

// Bcast distributes value from root to every rank along a binomial tree
// (log2(P) rounds, like production MPI broadcast). Every rank returns
// the broadcast value; only root's input value is meaningful. bytes is
// the per-transfer payload size for accounting.
func Bcast[T any](c *Comm, root int, value T, bytes int64) T {
	size := c.w.size
	if size == 1 {
		return value
	}
	rel := relRank(c.rank, root, size)
	var have T
	if rel == 0 {
		have = value
		c.w.metrics.AddBroadcast(bytes)
	} else {
		// Receive from the parent: the rank that differs in the highest
		// set bit below rel's lowest set bit pattern.
		mask := 1
		for mask <= rel {
			mask <<= 1
		}
		mask >>= 1
		parent := absRank(rel-mask, root, size)
		have = c.recv(c.w.coll, parent).value.(T)
	}
	// Forward down the tree.
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; mask < size; mask <<= 1 {
		child := rel + mask
		if child < size {
			c.send(c.w.coll, absRank(child, root, size), message{have, bytes})
		}
	}
	return have
}

// Gather collects every rank's value at root, indexed by rank. Non-root
// ranks return nil.
func Gather[T any](c *Comm, root int, value T, bytes int64) []T {
	if c.rank != root {
		c.send(c.w.coll, root, message{value, bytes})
		return nil
	}
	out := make([]T, c.w.size)
	out[root] = value
	for src := 0; src < c.w.size; src++ {
		if src == root {
			continue
		}
		out[src] = c.recv(c.w.coll, src).value.(T)
	}
	return out
}

// Reduce combines every rank's value at root with the associative op;
// non-root ranks return the zero value and false.
func Reduce[T any](c *Comm, root int, value T, bytes int64, op func(T, T) T) (T, bool) {
	vals := Gather(c, root, value, bytes)
	if c.rank != root {
		var zero T
		return zero, false
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op(acc, v)
	}
	return acc, true
}

// Allreduce combines every rank's value with op and returns the result
// on all ranks (reduce to 0, then broadcast).
func Allreduce[T any](c *Comm, value T, bytes int64, op func(T, T) T) T {
	acc, _ := Reduce(c, 0, value, bytes, op)
	return Bcast(c, 0, acc, bytes)
}

// BlockRange returns the [lo, hi) slice of n items owned by rank r of
// size ranks under contiguous block partitioning, the decomposition the
// executor's Reduce uses.
func BlockRange(n, r, size int) (lo, hi int) {
	lo = r * n / size
	hi = (r + 1) * n / size
	return lo, hi
}
