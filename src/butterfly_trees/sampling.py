"""
Seeded batch samplers: nonsimple butterfly words and trees, the trees of
uniform S_n and S_n wr S_m words (Theorem 2's block model) by root splits
with no word built, and the two recursive distributional laws (LIS-law and
cycle-law of nonsimple butterflies). Each returns ``count`` iid draws, one
per row or entry.

All samplers take either an :class:`RngState` (a value; the same state
always reproduces the same draw) or a live ``numpy.random.Generator``
(whose state advances between calls). Bounded-integer draws come from
numpy's Generator, which uses rejection-based bounded sampling, so every
rank and insertion order below is exactly uniform.

The recursion-law levels are normalized so that level n corresponds to
permutations of length 2^n: the base value at n = 0 is the constant 1,
which is what enumeration of the length-2 and length-4 groups pins down.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bst import batch_summaries
from .butterfly import stats_from_shape_bits, words_from_shape_bits

_SMALL = 8  # an interval of at most this many keys reads its whole tree from a table
_ORDERS = math.factorial(_SMALL)  # table entries per size
_SIZE = (1 << 30) - 1  # size field of a live interval
_LEFT, _RIGHT = 1, 2  # edge bits of a live interval


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


@functools.cache
def _small_trees() -> np.ndarray:
    """Read-only int32 table: entry s * _ORDERS + j holds h | l << 8 | r << 16
    of the BST of the (j mod s!)-th insertion order of s <= _SMALL keys, in
    ``itertools.permutations`` order. A uniform j in 0.._ORDERS-1 gives a
    uniform order, because s! divides _ORDERS. Built on first use, not at import."""
    table = np.zeros((_SMALL + 1, _ORDERS), dtype=np.int32)
    for s in range(1, _SMALL + 1):
        h, l, r = batch_summaries(np.array(list(itertools.permutations(range(1, s + 1)))))
        table[s] = np.tile(h | l << 8 | r << 16, _ORDERS // len(h))
    table = table.ravel()
    table.flags.writeable = False
    return table


def uniform_bst_stats(n: int, count: int, rng: RngState | np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays of ``count`` iid uniform BSTs on n keys, 1 <= n < 2^30.

    Root splits, level by level: the root of a uniform BST has a uniform
    rank, and its two subtrees are independent uniform BSTs on the keys
    either side. Every live interval of a level draws its root rank in one
    ``integers`` call. An interval of at most ``_SMALL`` keys instead draws
    a uniform insertion order of its keys and reads its (h, l, r) from the
    table of all of them. A live interval is one int64,
    tree << 32 | size << 2 | edge, whose edge bits _LEFT and _RIGHT say
    that every split above it went left or right, so that its root lies on
    the top-left or top-right edge.
    """
    if not 1 <= n <= _SIZE:
        raise ValueError(f"n must be in 1..{_SIZE}, got {n}")
    g = _gen(rng)
    table = _small_trees()
    h = np.zeros(count, dtype=np.int64)
    l = np.zeros(count, dtype=np.int64)
    r = np.zeros(count, dtype=np.int64)
    live = np.arange(count, dtype=np.int64) << 32 | n << 2 | _LEFT | _RIGHT
    depth = 0
    while live.size:
        small = (live >> 2 & _SIZE) <= _SMALL
        iv = live[small]
        tree = iv >> 32
        code = table[(iv >> 2 & _SIZE) * _ORDERS + g.integers(0, _ORDERS, size=iv.size, dtype=np.int32)]
        np.maximum.at(h, tree, np.add(code & 0xFF, depth, dtype=np.int64))
        on = (iv & _LEFT) != 0
        l[tree[on]] = depth + (code[on] >> 8 & 0xFF)
        on = (iv & _RIGHT) != 0
        r[tree[on]] = depth + (code[on] >> 16)

        iv = live[~small]
        tree = iv >> 32
        size = iv >> 2 & _SIZE
        k = g.integers(0, size)
        l[tree[((iv & _LEFT) != 0) & (k == 0)]] = depth
        r[tree[((iv & _RIGHT) != 0) & (k == size - 1)]] = depth
        # each interval's nonempty children; a child keeps its parent's edge bit on its side
        tree <<= 32
        kids = np.stack((tree | k << 2 | (iv & _LEFT), tree | (size - 1 - k) << 2 | (iv & _RIGHT)), axis=1)
        live = kids.ravel()[np.stack((k > 0, k < size - 1), axis=1).ravel()]
        depth += 1
    return h, l, r


def wreath_heights(n: int, m: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """Heights of ``count`` iid BSTs of uniform S_n wr S_m words, 1 <= n, m < 2^30.

    Such a tree is an external uniform BST on the m blocks, with an iid
    uniform BST on n keys (from :func:`uniform_bst_stats`) at every block.
    The external tree is split top down like those, a live interval being
    tree << 32 | size: the root block of an interval hangs at an offset,
    its left child at offset + l + 1 and its right child at offset + r + 1,
    and the height is max(offset + h) over the blocks.
    """
    if not 1 <= m <= _SIZE:
        raise ValueError(f"m must be in 1..{_SIZE}, got {m}")
    g = _gen(rng)
    hb, lb, rb = uniform_bst_stats(n, count * m, g)  # taken in order, one per block visited
    h = np.zeros(count, dtype=np.int64)
    live = np.arange(count, dtype=np.int64) << 32 | m
    offset = np.zeros(count, dtype=np.int64)
    used = 0
    while live.size:
        block = slice(used, used + live.size)
        used = block.stop
        tree = live >> 32
        np.maximum.at(h, tree, offset + hb[block])
        size = live & _SIZE
        k = g.integers(0, size)
        tree <<= 32
        kids = np.stack((tree | k, tree | (size - 1 - k)), axis=1)
        offsets = np.stack((offset + lb[block] + 1, offset + rb[block] + 1), axis=1)
        keep = np.stack((k > 0, k < size - 1), axis=1).ravel()
        live, offset = kids.ravel()[keep], offsets.ravel()[keep]
    return h


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
