package coverage

// Estimator is the query surface a doubling round reads from its RR
// collection: the set count θ, the greedy selection with its Λᵘ prefix
// bound, Λ(S) for the certificate, and the memory the collection holds.
// *Index is its one implementation.
type Estimator interface {
	// NumSets is the number of RR sets absorbed so far.
	NumSets() int
	// SelectSeeds runs greedy max-coverage selection with the Λᵘ prefix
	// upper bound.
	SelectSeeds(opt GreedyOptions) GreedyResult
	// CoverageOf is Λ(S), the number of absorbed sets intersecting the
	// seed set.
	CoverageOf(seeds []int32) int64
	// MemoryBytes reports the resident footprint of the coverage state.
	MemoryBytes() int64
}

var _ Estimator = (*Index)(nil)
