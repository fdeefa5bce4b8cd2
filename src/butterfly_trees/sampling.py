"""
Seeded batch samplers: the trees of nonsimple butterfly words from their
shapes (a draw of the top levels' bits, then one uniform class index per
bottom subtree of up to four levels), and those of uniform S_n and
S_n wr S_m words (Theorem 2's block model) by root splits, with no word
built, a subtree of at most 20 keys drawn whole from an exact alias table;
and the two recursive distributional laws (LIS-law and cycle-law of
nonsimple butterflies).
Each returns ``count`` iid draws, one per row or entry.

All samplers take a ``numpy.random.Generator`` and advance it, so two
draws from one generator never repeat each other's numbers; a stream id
:class:`RngState` becomes a generator only through its ``generator()``.
A generator must not be shared between threads during a call: the root
ranks, the shape draws and the law samplers read and write its state.
Bounded-integer draws are exactly uniform by rejection. Three kinds of
draw read the generator's 32-bit words from :func:`_words`, in the order
numpy's ``integers`` takes them, and apply Lemire's multiply-shift rule
(ACM TOMACS 2019), as numpy does: the root ranks of
:func:`uniform_bst_stats`, with numpy itself as the fallback when a word
would be rejected; and the fair bits of the law samplers and the top bits
and class indices of :func:`nonsimple_butterfly_stats`, whose bounds are
powers of two, which the rule never rejects, so each is its word's top
bits. So these are numpy's draws; every other bounded draw is numpy's own
call. The alias table, all in integers, draws every small tree exactly as
often as its insertion orders.

The recursion-law levels are normalized so that level n corresponds to
permutations of length 2^n: the base value at n = 0 is the constant 1,
which is what enumeration of the length-2 and length-4 groups pins down.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .butterfly import TABLE_LEVELS, stats_from_subtrees

_SMALL = 20  # an interval of at most this many keys draws its whole tree from an alias table
_ORDERS = math.factorial(_SMALL)  # < 2^63: one int64 draw per small interval
_COL_BITS = 11  # 2^11 alias columns per size: divides _ORDERS, exceeds the 1483 triples of 20 keys
_COLS = 1 << _COL_BITS
_SIZE = (1 << 30) - 1  # size field of a live interval
_LEFT, _RIGHT = 1 << 30, 1 << 31  # edge bits of a live interval
_TREE = -1 << 32  # tree field of a live interval
# the halves of l | r << 32 that a small interval's edge bits keep, indexed by right << 1 | left
_EDGE_HALVES = np.array([0, 0xFFFFFFFF, -1 << 32, -1], dtype=np.int64)
_ALIAS_LOCK = threading.Lock()  # two threads' first uniform_bst_stats build the alias table once


@dataclass(frozen=True)
class RngState:
    """A reproducible stream id: (seed, stream).

    Equal states yield identical sample sequences across runs and
    platforms; distinct stream ids derived from one seed are treated as
    independent streams (one per Monte Carlo trial or chunk).

    A generator belongs to one thread during a sampler call: the root
    ranks, the shape draws and the law samplers read its state and write it
    back (:func:`_words`), so a draw from another thread in between would
    be lost or repeated.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


def nonsimple_butterfly_stats(n: int, count: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of ``count`` iid uniform nonsimple butterfly trees, n >= 1.

    With k = min(n, 4), numpy's (count, 2^(n-k) - 1) draw of fair bits for
    the internal nodes of the top n - k levels, in level order, then its
    (count, 2^(n-k)) draw of uniform class indices below 2^(2^k - 1), one
    per bottom k-level subtree, left to right, both the top bits of one
    :func:`_words` draw, read by
    :func:`~butterfly_trees.butterfly.stats_from_subtrees`. A uniform class
    index is 2^k - 1 fair level-ordered shape bits, its binary digits, so
    these are the trees of fair bits on every internal node, with neither
    the bits, words nor trees built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = min(n, TABLE_LEVELS)
    tops, subtrees = (1 << (n - k)) - 1, 1 << (n - k)
    words = _words(g, count * (tops + subtrees))
    top, index = words[: count * tops], words[count * tops :]
    top >>= 31
    index >>= 32 - ((1 << k) - 1)
    return stats_from_subtrees(n, top.reshape(count, tops), index.reshape(count, subtrees))


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
    codes[2i + 1] are its primary and alias, each h | l << 24 | r << 56, so
    that code >> 24 is l | r << 32, the layout of the edge sums.

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
        code = (h | l << 24 | r << 56).tolist() + pad
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


def _alias_codes(small: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """h | l << 24 | r << 56 of the whole tree of each small interval, from one
    exact integer alias draw each. An interval's size is its low bits,
    ``& _SIZE``, read unshifted (:func:`uniform_bst_stats`); the temporaries,
    as large as the level, die on return."""
    with _ALIAS_LOCK:
        thr, codes = _alias_table()
    # column u mod _COLS of the interval's size, then the column's alias if
    # u // _COLS >= thr; in place, since a large level's temporaries cost
    # as much as its arithmetic
    u = g.integers(0, _ORDERS, size=small.size, dtype=np.int64)
    at = small & _SIZE
    at <<= _COL_BITS
    at |= u & _COLS - 1
    u >>= _COL_BITS
    alias = u >= thr.take(at)
    at <<= 1
    at |= alias
    return codes.take(at)


def _words(g: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``g`` as uint32, in the order numpy's
    bounded draws take them: ``g.integers(0, 2**32, count, dtype=np.uint32)``,
    with the same ``g.bit_generator.state`` after.

    PCG64 hands out its words as the half its state holds, if any, then the
    low and the high half of each 64-bit word, and holds an unused high half.
    Here the 64-bit words come from one ``random_raw`` call, without the GIL,
    and are read in place; they are copied only to put a held half first. The
    state is then written as numpy's word-by-word draws would leave it. Any
    other bit generator draws through ``integers``.
    """
    bg = g.bit_generator
    if type(bg) is not np.random.PCG64 or not count:
        return g.integers(0, 1 << 32, size=count, dtype=np.uint32)
    state = bg.state
    held = state["has_uint32"]
    fresh = count - held  # words beyond the held half
    # each raw word's halves, low first, on any host byte order
    words = bg.random_raw((fresh + 1) // 2).astype("<u8", copy=False).view("<u4")
    if held:
        words = np.concatenate((np.array([state["uinteger"]], dtype=np.uint32), words))
    if fresh:
        state = bg.state  # the raw words advanced it
        state["uinteger"] = int(words[-1])  # numpy keeps the last high half, held or spent
    state["has_uint32"] = fresh & 1
    bg.state = state
    return words[:count]


def _root_ranks(size: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """``g.integers(0, size)`` for int64 sizes in 2..2^32 - 1: the same ranks,
    and the same ``g.bit_generator.state`` after.

    numpy draws rank k < s from a 32-bit word w by Lemire's rule, k = w * s >> 32,
    unless the low half w * s mod 2^32 is below 2^32 mod s; then it rejects w and
    draws the next word. Here the words come from :func:`_words` and the rule
    runs on whole arrays, both without the GIL, where numpy's loop over the
    sizes holds it. If any word would be rejected, the state is restored and
    numpy draws the ranks. A size of 1 would draw no word in numpy, and is not
    handled.
    """
    bg = g.bit_generator
    state = bg.state
    s = size.view(np.uint64)
    m = np.multiply(_words(g, size.size), s)  # w * s, then the rank w * s >> 32
    low = m.astype(np.uint32)
    maybe = np.flatnonzero(low < s)  # low >= s is never rejected; one word in 2^32 / s is checked
    if maybe.size and (low[maybe] < (1 << 32) % s[maybe]).any():
        bg.state = state
        return g.integers(0, size)
    del low
    m >>= 32
    return m.view(np.int64)


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... of two arrays of one size and dtype:
    ``np.stack((a, b), axis=1).ravel()`` without ``np.stack``'s Python wrapper."""
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def uniform_bst_stats(
    n: int, count: int, g: np.random.Generator, edges: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(h, l, r) int64 arrays of ``count`` iid uniform BSTs on n keys, 1 <= n < 2^30;
    with ``edges=False``, (h, None, None) from the same draws, the edge work skipped.

    Root splits, level by level: the root of a uniform BST has a uniform
    rank, and its two subtrees are independent uniform BSTs on the keys
    either side. An interval of at most ``_SMALL`` keys is small: it draws
    its whole (h, l, r) with one exact integer alias draw from the law of
    all its insertion orders, so a tree on n <= _SMALL keys is one draw.
    Otherwise a level is the array of its ``large`` intervals. They draw
    their root ranks in one :func:`_root_ranks` call, numpy's ``integers``
    ranks without the GIL, and each interval's two kids are split once
    into the next level's nonempty small and large intervals, in order, and
    the small ones draw their trees. An interval is one int64,
    tree << 32 | right << 31 | left << 30 | size, whose edge bits _RIGHT and
    _LEFT say that every split above it went right or left, so that its root
    lies on the top-right or top-left edge; a kid takes its parent's tree and
    its own side's edge bit with one mask, over its size. Each of a tree's l
    and r comes from the one interval where its edge ends: a large interval
    whose kid on that side is empty, read off the kid as its edge bit over a
    size of 0, adds its depth; a small interval on the edge adds its depth
    plus its own tree's l or r. So every interval adds its share to
    l | r << 32, zero off the edges; ``edges=False`` sets no edge bit and
    sums nothing, for a caller that reads only h. A level's arrays are freed
    before the next level's are made, so that two calls on two threads fit
    in the memory that one took while it kept them. ``g`` must not be drawn
    from on another thread during the call.
    """
    if not 1 <= n <= _SIZE:
        raise ValueError(f"n must be in 1..{_SIZE}, got {n}")
    if n <= _SMALL:
        code = _alias_codes(np.broadcast_to(np.int64(n), count), g)  # every tree has n keys: no count-long input
        h, l = code & 0xFF, code >> 24
        l &= 0xFF
        code >>= 56  # r in place, so that h, l and r take no more memory than the draw's temporaries
        return (h, l, code) if edges else (h, None, None)
    h = np.zeros(count, dtype=np.int64)
    lr = np.zeros(count, dtype=np.int64) if edges else None  # l | r << 32
    large = np.arange(count, dtype=np.int64) << 32 | (_LEFT | _RIGHT if edges else 0) | n
    depth = 0
    # every partition is a compress: numpy 2.4 takes 1.7 ms to subscript 450K
    # int64s by a half-true bool mask, and compress 0.21 ms
    while large.size:
        rest = large & _SIZE  # the size, until the root rank k is drawn
        k = _root_ranks(rest, g)
        rest -= 1
        rest -= k
        # the kids split once into the nonempty small and the large, and are
        # built in place over k and rest; a kid keeps its parent's tree and
        # its parent's edge bit on its side
        big = _pairs(k > _SMALL, rest > _SMALL)
        kept = _pairs(k > 0, rest > 0)
        kept ^= big
        k |= large & (_TREE | _LEFT)
        rest |= large & (_TREE | _RIGHT)
        del large
        if edges:
            # an empty kid on an edge ends it at its parent
            lr[k.compress(k & (_LEFT | _SIZE) == _LEFT) >> 32] += depth
            lr[rest.compress(rest & (_RIGHT | _SIZE) == _RIGHT) >> 32] += depth << 32
        kids = _pairs(k, rest)
        del k, rest
        small, large = kids.compress(kept), kids.compress(big)
        del kids, kept, big
        depth += 1

        code = _alias_codes(small, g)
        tree = small >> 32
        np.maximum.at(h, tree, (code & 0xFF) + depth)
        if edges:
            # l | r << 32 plus the depth on each, each half kept if its edge bit is set
            code >>= 24
            code += depth << 32 | depth
            side = small >> 30
            side &= 3
            code &= _EDGE_HALVES.take(side)
            np.add.at(lr, tree, code)
            del side
        del small, tree, code
    return (h, lr & 0xFFFFFFFF, lr >> 32) if edges else (h, None, None)


def wreath_heights(n: int, m: int, count: int, g: np.random.Generator) -> np.ndarray:
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
        kids = _pairs(tree | k, tree | (size - 1 - k))
        offsets = _pairs(offset + lb[block] + 1, offset + rb[block] + 1)
        keep = _pairs(k > 0, k < size - 1)
        live, offset = kids.compress(keep), offsets.compress(keep)
    return h


def _law_samples(n: int, count: int, g: np.random.Generator, combine) -> np.ndarray:
    """int64 level-n samples of a law whose level k + 1 is ``combine(X1, X2, eta)``
    of level k's adjacent pairs and a fair bit: numpy's ``g.integers(1, 3)`` for
    level 1 and ``g.integers(0, 2)`` for each level above, as (count, width) arrays
    from level 1 up, read from one :func:`_words` draw of all count * (2^n - 1)
    bits, the top bit of each word, and combined in place in its uint32 words."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not n:
        return np.ones(count, dtype=np.int64)
    bits = _words(g, count * ((1 << n) - 1))
    bits >>= 31
    width = 1 << (n - 1)
    arr = bits[: count * width].reshape(count, width)
    arr += 1  # level 1 of both laws is 1 + eta: no all-ones level is built
    at = arr.size
    while width > 1:
        width >>= 1
        eta = bits[at : at + count * width].reshape(count, width)
        at += eta.size
        arr = combine(arr[:, 0::2], arr[:, 1::2], eta)
    return arr[:, 0].astype(np.int64)


def lis_law_samples(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """iid samples of the level-n LIS law: X' = (X1 + X2) eta + max(X1, X2)(1 - eta) = eta min + max."""
    return _law_samples(n, count, g, lambda a, b, e: np.add(np.multiply(e, np.minimum(a, b), out=e), np.maximum(a, b), out=e))


def cycle_law_samples(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """iid samples of the level-n cycle law: Y' = Y1 + eta Y2, computed in place in eta."""
    return _law_samples(n, count, g, lambda a, b, e: np.add(np.multiply(e, b, out=e), a, out=e))
