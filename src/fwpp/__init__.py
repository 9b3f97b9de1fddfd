"""Exact enumeration of squared Markov equations, fake weighted projective
planes of integral degree, their singularities and adjacency graphs."""

from .abelian import KAutomorphism, apply_automorphism, k_membership_multiple
from .adjacency import (
    AdjacencyGraph,
    AdjacentPair,
    KStarData,
    adjacency_graph,
    adjacent_partner,
    self_adjacency_census,
)
from .markov import (
    EnumerationCapExceeded,
    InvariantError,
    MutationTree,
    SolutionTriple,
    SquareDecomposition,
    decompose,
    enumerate_tree,
    initial_solutions,
    is_solution,
)
from .planes import (
    ClassifiedPlane,
    DegreeMatrix,
    GeneratorMatrix,
    SeriesId,
    SingularityReport,
    adjust,
    anticanonical_class,
    classify,
    corresponds,
    degree,
    fake_weights_of_degree_matrix,
    generator_of,
    isomorphism_witness,
    local_gorenstein_index,
    resolution_curve_count,
    singularity_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
