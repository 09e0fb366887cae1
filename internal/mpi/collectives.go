package mpi

// Collectives: every rank of the communicator must call the same
// collective with compatible arguments, as in MPI.

// relRank maps rank onto the tree rooted at root.
func relRank(rank, root, size int) int { return (rank - root + size) % size }

func absRank(rel, root, size int) int { return (rel + root) % size }

// Bcast distributes value from root to every rank along a binomial tree
// (log2(P) rounds, like production MPI broadcast). Every rank returns
// the broadcast value; only root's input value is meaningful. bytes is
// the payload size, accounted once, at root, as broadcast: the tree's
// sends are that broadcast, not shuffle.
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
		have = c.recv(parent).(T)
	}
	// Forward down the tree.
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; mask < size; mask <<= 1 {
		child := rel + mask
		if child < size {
			c.send(absRank(child, root, size), have)
		}
	}
	return have
}

// Gather collects every rank's value at root, indexed by rank. Non-root
// ranks return nil. A gather is not a shuffle and accounts nothing: an
// analysis whose collected values are its shuffle (Leaflet's edges and
// components) accounts them itself, the same on every engine.
func Gather[T any](c *Comm, root int, value T) []T {
	if c.rank != root {
		c.send(root, value)
		return nil
	}
	out := make([]T, c.w.size)
	out[root] = value
	for src := 0; src < c.w.size; src++ {
		if src == root {
			continue
		}
		out[src] = c.recv(src).(T)
	}
	return out
}
