"""
Seeded batch samplers for the permutation families and the two recursive
distributional laws (LIS-law and cycle-law of nonsimple butterflies).
Each returns ``count`` iid draws, one per row or entry.

All samplers take either an :class:`RngState` (a value; the same state
always reproduces the same draw) or a live ``numpy.random.Generator``
(whose state advances between calls). Bounded-integer draws come from
numpy's Generator, which uses rejection-based bounded sampling, so the
shuffles below are exactly uniform.

The recursion-law levels are normalized so that level n corresponds to
permutations of length 2^n: the base value at n = 0 is the constant 1,
which is what enumeration of the length-2 and length-4 groups pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butterfly import stats_from_shape_bits, words_from_shape_bits


@dataclass(frozen=True)
class RngState:
    """A reproducible stream id: (seed, stream).

    Equal states yield identical sample sequences across runs and
    platforms; distinct stream ids derived from one seed are treated as
    independent streams (one per Monte Carlo trial or chunk).
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


def _gen(rng: RngState | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngState):
        return rng.generator()
    return rng


def _nonsimple_shape_bits(n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """(count, 2^n - 1) fair shape bits: the one draw behind every nonsimple sampler."""
    return _gen(rng).integers(0, 2, size=(count, (1 << n) - 1))


def nonsimple_butterfly_words(n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """(count, 2^n) matrix of iid uniform nonsimple butterfly words."""
    return words_from_shape_bits(n, _nonsimple_shape_bits(n, count, rng))


def nonsimple_butterfly_stats(
    n: int, count: int, rng: RngState | np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of ``count`` iid uniform nonsimple butterfly trees.

    Draws the same bits as :func:`nonsimple_butterfly_words`, so an equal
    state gives the trees of exactly those words, but builds neither.
    """
    return stats_from_shape_bits(n, _nonsimple_shape_bits(n, count, rng))


def uniform_words(n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """(count, n) matrix of iid uniform S_n words (row-wise shuffles)."""
    g = _gen(rng)
    base = np.tile(np.arange(1, n + 1, dtype=np.int64), (count, 1))
    return g.permuted(base, axis=1, out=base)


def wreath_words(n: int, m: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """(count, n*m) matrix of iid uniform S_n wr S_m words.

    Independent uniform draws of the outer word and of every block give a
    uniform element of the product group (subgroup-algorithm sampling).
    """
    g = _gen(rng)
    rho = g.permuted(np.tile(np.arange(m, dtype=np.int64), (count, 1)), axis=1)
    at = np.argsort(rho, axis=1)  # block k (values k*n+1..k*n+n) sits at position-block at[:, k]
    rows = np.arange(count)
    out = np.empty((count, m, n), dtype=np.int64)
    for k in range(m):
        block = uniform_words(n, count, g)
        block += k * n
        out[rows, at[:, k]] = block
    return out.reshape(count, n * m)


def _law_samples(n: int, count: int, g: np.random.Generator, combine) -> np.ndarray:
    if n < 0:
        raise ValueError("n must be >= 0")
    arr = np.ones((count, 1 << n), dtype=np.int64)
    for _ in range(n):
        a = arr[:, 0::2]
        b = arr[:, 1::2]
        eta = g.integers(0, 2, size=a.shape)
        arr = combine(a, b, eta)
    return arr[:, 0]


def lis_law_samples(n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """iid samples of the level-n LIS law: X' = (X1 + X2) eta + max(X1, X2)(1 - eta)."""
    return _law_samples(n, count, _gen(rng), lambda a, b, e: np.where(e == 1, a + b, np.maximum(a, b)))


def cycle_law_samples(n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """iid samples of the level-n cycle law: Y' = Y1 + eta Y2."""
    return _law_samples(n, count, _gen(rng), lambda a, b, e: a + e * b)
