"""
Seeded batch samplers: the trees of nonsimple butterfly words from their
shape bits, and those of uniform S_n and S_n wr S_m words (Theorem 2's
block model) by root splits, with no word built, a subtree of at most 20
keys drawn whole from an exact alias table; and the two recursive
distributional laws (LIS-law and cycle-law of nonsimple butterflies).
Each returns ``count`` iid draws, one per row or entry.

All samplers take either an :class:`RngState` (a value; the same state
always reproduces the same draw) or a live ``numpy.random.Generator``
(whose state advances between calls). Bounded-integer draws come from
numpy's Generator, which uses rejection-based bounded sampling, so every
rank below is exactly uniform, and the alias table, all in integers, draws
every small tree exactly as often as its insertion orders.

The recursion-law levels are normalized so that level n corresponds to
permutations of length 2^n: the base value at n = 0 is the constant 1,
which is what enumeration of the length-2 and length-4 groups pins down.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .butterfly import stats_from_shape_bits

_SMALL = 20  # an interval of at most this many keys draws its whole tree from an alias table
_ORDERS = math.factorial(_SMALL)  # < 2^63: one int64 draw per small interval
_COL_BITS = 11  # 2^11 alias columns per size: divides _ORDERS, exceeds the 1483 triples of 20 keys
_COLS = 1 << _COL_BITS
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


def nonsimple_butterfly_stats(
    n: int, count: int, rng: RngState | np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of ``count`` iid uniform nonsimple butterfly trees.

    One (count, 2^n - 1) draw of fair shape bits, a bit per internal node in
    level order, read by :func:`~butterfly_trees.butterfly.stats_from_shape_bits`:
    the trees of the words those bits build, with neither words nor trees built.
    """
    return stats_from_shape_bits(n, _gen(rng).integers(0, 2, size=(count, (1 << n) - 1)))


def _law_counts() -> np.ndarray:
    """int64 counts T[s, h+1, l+1, r+1] of the insertion orders of s <= _SMALL
    keys whose BST has height h, top-left edge l and top-right edge r; the
    empty tree sits at T[0, 0, 0, 0].

    Root-rank recursion: the first key has k keys below it, a uniform order
    of them on its left and one of the other s - 1 - k on its right,
    interleaved in C(s-1, k) ways. In shifted indices the tree's h, l and r
    are one more than the subtrees' max(hA, hB), lA and rB. The pairs with
    max(hA, hB) <= h are the product of the cumulative (h, l) marginal on
    the left and the cumulative (h, r) marginal on the right, so first
    differences along h give the joint law. No entry or partial sum exceeds
    20!, which int64 holds exactly.
    """
    d = _SMALL + 1
    T = np.zeros((d, d, d, d), dtype=np.int64)
    T[0, 0, 0, 0] = 1
    FA, FB = [], []  # FA[k][h, l]: orders of k keys with h' <= h and l' = l; FB likewise with r
    for s in range(1, d):
        FA.append(T[s - 1].sum(axis=2).cumsum(axis=0))
        FB.append(T[s - 1].sum(axis=1).cumsum(axis=0))
        below = sum(math.comb(s - 1, k) * FA[k][:, :, None] * FB[s - 1 - k][:, None, :] for k in range(s))
        T[s, 1:, 1:, 1:] = np.diff(below, axis=0, prepend=0)[:-1, :-1, :-1]
        assert T[s].sum() == math.factorial(s)
    return T


@functools.cache
def _alias_table() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Walker alias columns (thr, codes) of every size s <= _SMALL:
    column c of size s is entry i = s * _COLS + c of thr, and codes[2i] and
    codes[2i + 1] are its primary and alias, each h | l << 8 | r << 16.

    A triple of size s weighs its count times _ORDERS / s!, so each size
    weighs _ORDERS in all, _COLS columns of capacity _ORDERS / _COLS. Vose's
    pairing, in Python ints, leaves each column thr of its primary and the
    rest of its capacity to its alias. A uniform u in 0.._ORDERS-1 is a
    uniform column u mod _COLS and an independent uniform u // _COLS below
    the capacity, which picks the primary if it is below thr. So every tree
    of s keys comes exactly as often as its insertion orders. Built on first
    use, not at import.
    """
    T = _law_counts()
    cap = _ORDERS // _COLS
    thr = np.zeros((_SMALL + 1, _COLS), dtype=np.int64)
    codes = np.zeros((_SMALL + 1, _COLS, 2), dtype=np.int64)
    for s in range(1, _SMALL + 1):
        at = np.nonzero(T[s])
        h, l, r = (i - 1 for i in at)
        pad = [0] * (_COLS - h.size)  # empty columns: weight 0, always their alias
        code = (h | l << 8 | r << 16).tolist() + pad
        weight = [int(c) * (_ORDERS // math.factorial(s)) for c in T[s][at]] + pad
        alias = list(range(_COLS))
        small = [c for c in alias if weight[c] < cap]
        large = [c for c in alias if weight[c] >= cap]
        while small:
            c, big = small.pop(), large.pop()
            alias[c] = big
            weight[big] -= cap - weight[c]
            (small if weight[big] < cap else large).append(big)
        assert all(weight[c] == cap for c in large)
        thr[s] = weight
        codes[s, :, 0] = code
        codes[s, :, 1] = [code[c] for c in alias]
    thr, codes = thr.ravel(), codes.ravel()
    thr.flags.writeable = codes.flags.writeable = False
    return thr, codes


def uniform_bst_stats(n: int, count: int, rng: RngState | np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays of ``count`` iid uniform BSTs on n keys, 1 <= n < 2^30.

    Root splits, level by level: the root of a uniform BST has a uniform
    rank, and its two subtrees are independent uniform BSTs on the keys
    either side. Every live interval of a level draws its root rank in one
    ``integers`` call. An interval of at most ``_SMALL`` keys instead draws
    its whole (h, l, r) with one exact integer alias draw from the law of
    all its insertion orders. A live interval is one int64,
    tree << 32 | size << 2 | edge, whose edge bits _LEFT and _RIGHT say
    that every split above it went left or right, so that its root lies on
    the top-left or top-right edge. Each of a tree's l and r comes from the
    one interval where its edge ends, so every interval adds its share to
    l | r << 32, zero off the edges.
    """
    if not 1 <= n <= _SIZE:
        raise ValueError(f"n must be in 1..{_SIZE}, got {n}")
    g = _gen(rng)
    thr, codes = _alias_table()
    h = np.zeros(count, dtype=np.int64)
    lr = np.zeros(count, dtype=np.int64)  # l | r << 32
    live = np.arange(count, dtype=np.int64) << 32 | n << 2 | _LEFT | _RIGHT
    depth = 0
    while live.size:
        small = (live >> 2 & _SIZE) <= _SMALL
        iv = live[small]
        tree = iv >> 32
        # column u mod _COLS of the interval's size, then the column's alias if
        # u // _COLS >= thr; in place, since a large level's temporaries cost
        # as much as its arithmetic
        u = g.integers(0, _ORDERS, size=iv.size, dtype=np.int64)
        at = iv & _SIZE << 2
        at <<= _COL_BITS - 2
        at |= u & _COLS - 1
        u >>= _COL_BITS
        alias = u >= thr.take(at)
        at <<= 1
        at |= alias
        code = codes.take(at)
        np.maximum.at(h, tree, (code & 0xFF) + depth)
        # times the edge bits: _LEFT is 1, and _RIGHT << 31 is 1 << 32
        l = code >> 8
        l &= 0xFF
        l += depth
        l *= iv & _LEFT
        code >>= 16
        code += depth
        code *= (iv & _RIGHT) << 31
        code |= l
        np.add.at(lr, tree, code)

        iv = live[~small]
        tree = iv >> 32
        size = iv >> 2 & _SIZE
        k = g.integers(0, size)
        lr[tree[((iv & _LEFT) != 0) & (k == 0)]] += depth
        lr[tree[((iv & _RIGHT) != 0) & (k == size - 1)]] += depth << 32
        # each interval's nonempty children; a child keeps its parent's edge bit on its side
        tree <<= 32
        kids = np.stack((tree | k << 2 | (iv & _LEFT), tree | (size - 1 - k) << 2 | (iv & _RIGHT)), axis=1)
        live = kids.ravel()[np.stack((k > 0, k < size - 1), axis=1).ravel()]
        depth += 1
    return h, lr & 0xFFFFFFFF, lr >> 32


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
