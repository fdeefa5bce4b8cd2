"""
Comparability graph of the Boolean lattice on an n-element ground set.

Vertices are the 2^n subsets (bitmask encoding, ascending); edges join
strictly nested pairs. A subset of size k is comparable to its 2^k - 1
proper subsets and 2^(n-k) - 1 proper supersets, so its degree is
2^k + 2^(n-k) - 2 -- the same value set and multiplicities as the simple
butterfly height law at level n.
"""

from __future__ import annotations

import math

ANALYTIC_CAP = 20


def degree_multiset(n: int) -> dict[int, int]:
    """Degree -> vertex count, computed from binomial coefficients."""
    if not 1 <= n <= ANALYTIC_CAP:
        raise ValueError(f"n must be in 1..{ANALYTIC_CAP}")
    counts: dict[int, int] = {}
    for k in range(n + 1):
        deg = (1 << k) + (1 << (n - k)) - 2
        counts[deg] = counts.get(deg, 0) + math.comb(n, k)
    return counts
