"""latcut: finite posets, their filter lattices, and convex expansion.

A finite distributive lattice is the lattice of filters of a finite poset
(ordered by reverse inclusion).  This package builds those lattices, finds
the intervals met by every maximal chain, performs the convex expansion that
splices a copy of such an interval into the lattice, and tracks what the
operation does to the counting invariants: the rank generating function, the
cube-interval counts q_k, and the cover-degree histograms d_k.

Fence and crown posets tie the machinery to the Fibonacci and Lucas cubes;
verify exposes seeded brute-force suites for every identity the package
claims.
"""

from .bits import iter_bits, mask_of
from .catalog import (all_labeled_posets, posets_up_to_iso, random_poset,
                      trial_seed)
from .errors import (CapacityExceeded, CycleDetected, DuplicateLabel,
                     InvalidInterval, LatcutError, NotACutting, OddSize,
                     ParseError, UnknownLabel)
from .expansion import (CUTTING_METHODS, CuttingBoundary, DecomposeResult,
                        ExpansionResult, boundary, cuttings, decompose,
                        expand_poset, is_cutting)
from .families import (CubeGraph, FamilyReport, antichain, chain, cover_cube,
                       crown, fence, fib, fibonacci_cube, graph_isomorphic,
                       lucas, lucas_cube, verify_fibonacci_decomposition,
                       verify_lucas_decomposition)
from .fileio import export_dot, parse_poset_file, write_poset_file
from .invariants import (DegreeVectors, antichain_census, binomial_relations,
                         binomial_transform, check_d_recurrences,
                         check_q_recurrence, check_rank_recurrence, d_vectors,
                         euler_checks, inverse_binomial_transform,
                         poset_stats, q_vector, rank_gen, rank_gen_of,
                         stats_dict)
from .lattice import DistLattice, IntervalRef, birkhoff_roundtrip, filter_lattice
from .poset import (FILTER_CAP, Poset, disjoint_union, ordinal_sum,
                    poset_from_covers, poset_isomorphic, poset_isomorphism,
                    singleton)
from .verify import (SUITE_NAMES, SuiteResult, run_cutting_suite, run_suite,
                     verify_birkhoff, verify_cubes, verify_fibonacci,
                     verify_lucas, verify_random)

__version__ = "0.1.0"

__all__ = [
    # bits
    "iter_bits", "mask_of",
    # catalog
    "all_labeled_posets", "posets_up_to_iso", "random_poset", "trial_seed",
    # errors
    "CapacityExceeded", "CycleDetected", "DuplicateLabel", "InvalidInterval",
    "LatcutError", "NotACutting", "OddSize", "ParseError", "UnknownLabel",
    # expansion
    "CUTTING_METHODS", "CuttingBoundary", "DecomposeResult",
    "ExpansionResult", "boundary", "cuttings", "decompose", "expand_poset",
    "is_cutting",
    # families
    "CubeGraph", "FamilyReport", "antichain", "chain", "cover_cube", "crown",
    "fence", "fib", "fibonacci_cube", "graph_isomorphic", "lucas",
    "lucas_cube",
    "verify_fibonacci_decomposition", "verify_lucas_decomposition",
    # fileio
    "export_dot", "parse_poset_file", "write_poset_file",
    # invariants
    "DegreeVectors", "antichain_census", "binomial_relations",
    "binomial_transform", "check_d_recurrences", "check_q_recurrence",
    "check_rank_recurrence", "d_vectors", "euler_checks",
    "inverse_binomial_transform", "poset_stats", "q_vector", "rank_gen",
    "rank_gen_of", "stats_dict",
    # lattice
    "DistLattice", "IntervalRef", "birkhoff_roundtrip", "filter_lattice",
    # poset
    "FILTER_CAP", "Poset", "disjoint_union", "ordinal_sum",
    "poset_from_covers", "poset_isomorphic", "poset_isomorphism", "singleton",
    # verify
    "SUITE_NAMES", "SuiteResult", "run_cutting_suite", "run_suite",
    "verify_birkhoff", "verify_cubes", "verify_fibonacci", "verify_lucas",
    "verify_random",
]
