package dask

import "fmt"

// Bag is Dask's unordered partitioned collection, built here on top of
// Delayed nodes: each partition is one graph node evaluating to []T.
// The paper maps its MapReduce-style Leaflet Finder implementations to
// Bags (§3.2, Table 1).
type Bag[T any] struct {
	client *Client
	parts  []*Delayed // each evaluates to []T
}

// BagFromDelayed builds a bag from existing nodes, each of which must
// evaluate to []T.
func BagFromDelayed[T any](c *Client, parts []*Delayed) *Bag[T] {
	return &Bag[T]{client: c, parts: parts}
}

// BagFold reduces the bag with a per-partition accumulator and a
// pairwise combiner of accumulators (Dask's bag.fold). As in Dask, the
// zero value seeds every partition's accumulation, so it must be an
// identity of combine. The combine tree is binary, so reduction depth
// is logarithmic like Dask's.
func BagFold[T, A any](b *Bag[T], zero A, acc func(A, T) A, combine func(A, A) A) *Delayed {
	partials := make([]*Delayed, len(b.parts))
	for i, p := range b.parts {
		partials[i] = b.client.Delayed(fmt.Sprintf("fold-acc-%d", i), func(args []interface{}) (interface{}, error) {
			a := zero
			for _, v := range args[0].([]T) {
				a = acc(a, v)
			}
			return a, nil
		}, p)
	}
	for len(partials) > 1 {
		var next []*Delayed
		for i := 0; i < len(partials); i += 2 {
			if i+1 == len(partials) {
				next = append(next, partials[i])
				continue
			}
			next = append(next, b.client.Delayed("fold-combine", func(args []interface{}) (interface{}, error) {
				return combine(args[0].(A), args[1].(A)), nil
			}, partials[i], partials[i+1]))
		}
		partials = next
	}
	if len(partials) == 0 {
		return b.client.Value("fold-empty", zero)
	}
	return partials[0]
}
