"""Butterfly and block permutation constructions, BST edge/height laws,
and seeded Monte Carlo experiments."""

from .bst import BstSummary, batch_summaries, summary
from .exact import (
    BoundSequences,
    Constants,
    bound_sequences,
    constants,
    cycle_moment,
    devroye_constant,
    edge_moments,
    exact_mean_height,
    harmonic,
    nonsimple_mean_bounds,
    simple_height_counts,
    simple_height_mean,
    simple_height_pmf,
    stirling1_pmf,
    triple_counts,
)
from .gepp import gepp_factorization, uniformity_check
from .lattice import degree_multiset
from .sampling import RngState

__version__ = "0.1.0"
