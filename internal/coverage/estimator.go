// Estimator is the pluggable coverage backend: the contract every
// seed-selection data structure must honour so the algorithm chassis
// (IMM, SSA, OPIM-C, TIM+, HIST) can run against either the exact CSR
// inverted index or the HyperLogLog sketch backend without knowing
// which one it holds. The exact backend (*Index) answers every query
// precisely; the sketch backend (*HLL) trades a certified relative
// error (RelError) for O(1) memory per node and union-based marginal
// gains.
package coverage

import (
	"fmt"

	"subsim/internal/rrset"
)

// EstimatorKind identifies a coverage backend implementation.
type EstimatorKind int

const (
	// EstimatorExact is the sharded CSR inverted index (*Index): exact
	// coverage counts, memory proportional to the total posting mass
	// (θ · avg RR size).
	EstimatorExact EstimatorKind = iota
	// EstimatorHLL is the register-array HyperLogLog sketch backend:
	// coverage counts within a certified relative error, memory fixed at
	// 2^precision bytes per node regardless of θ.
	EstimatorHLL
)

// String returns the flag-level name of the backend.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorHLL:
		return "hll"
	default:
		return "exact"
	}
}

// ParseEstimator maps a flag value ("exact" | "hll") to its kind.
func ParseEstimator(s string) (EstimatorKind, error) {
	switch s {
	case "exact", "":
		return EstimatorExact, nil
	case "hll", "sketch":
		return EstimatorHLL, nil
	default:
		return EstimatorExact, fmt.Errorf("coverage: unknown estimator %q (want exact|hll)", s)
	}
}

// Estimator answers the coverage queries the sampling algorithms issue
// over a growing RR collection. Implementations are append-only and not
// safe for concurrent mutation, mirroring *Index; SetWorkers only bounds
// internal parallelism and never changes any result (the repo's
// worker-independence invariant applies to both backends).
type Estimator interface {
	// N is the number of nodes the estimator is defined over.
	N() int
	// NumSets is the number of RR sets absorbed so far.
	NumSets() int
	// Add absorbs one RR set.
	Add(set rrset.RRSet)
	// AbsorbArena absorbs a whole arena flat buffer (data with exclusive
	// per-set end offsets), skipping sentinel-terminated sets when
	// sentinel is non-nil, and returns the number skipped. It is the
	// batch ingestion path Batcher.Fill drives, visiting arenas in
	// global-set-id order.
	AbsorbArena(data []int32, ends []int64, sentinel []bool) int64
	// SetWorkers bounds internal parallelism (clamped to >= 1).
	SetWorkers(w int)
	// Workers returns the configured parallelism bound.
	Workers() int
	// Degree estimates the number of absorbed RR sets containing v.
	Degree(v int32) int
	// CoverageOf estimates Λ(S), the number of absorbed sets
	// intersecting the seed set.
	CoverageOf(seeds []int32) int64
	// SelectSeeds runs greedy max-coverage selection with the Λᵘ prefix
	// upper bound.
	SelectSeeds(opt GreedyOptions) GreedyResult
	// MemoryBytes reports the resident footprint of the coverage state.
	MemoryBytes() int64
	// Kind identifies the backend.
	Kind() EstimatorKind
	// RelError is the certified relative standard error of coverage
	// estimates: 0 for the exact backend, ~1.04/sqrt(2^precision) for
	// the sketch backend.
	RelError() float64
}

// Kind identifies the exact CSR backend.
func (x *Index) Kind() EstimatorKind { return EstimatorExact }

// RelError is 0: the CSR index counts coverage exactly.
func (x *Index) RelError() float64 { return 0 }
