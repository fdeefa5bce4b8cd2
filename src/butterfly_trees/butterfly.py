"""
Simple and nonsimple butterfly permutations of length N = 2^n.

A simple butterfly permutation is an n-fold Kronecker product of length-2
words; its recursion choices are n bits, innermost factor first, with
bit 1 meaning the factor is 21. A nonsimple butterfly permutation is an
n-fold wreath construction; its choices form a full binary tree with
2^n - 1 bits, one per internal node, stored in level order (root first).

Fixed word convention for one nonsimple step on halves w1, w2 of size M:

    bit 0 (outer 12):  (w1 | w2 + M)
    bit 1 (outer 21):  (w1 + M | w2)

so the first child always owns the block containing the root of the tree.

Tree statistics come straight from the shape: :func:`stats_from_shape_bits`
evaluates the (h, l, r) recursion over the level-ordered bits, one numpy
step per level, and is what ``fig8`` samples. The words and the trees
built from them by insertion remain the oracle the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .perms import Word, check_word

DEFAULT_NONSIMPLE_CAP = 4


@dataclass(frozen=True)
class ButterflyShape:
    """Recursion-choice bits of a nonsimple butterfly permutation.

    ``bits`` has length 2^depth - 1 and is stored level-ordered with the
    root first; the children of node i sit at 2i+1 and 2i+2.
    """

    depth: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.bits) != (1 << self.depth) - 1:
            raise ValueError(f"need {(1 << self.depth) - 1} bits for depth {self.depth}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "ButterflyShape":
        """Parse a level-order bit string, root first, e.g. "101" for depth 2."""
        n = (len(text) + 1).bit_length() - 1
        if (1 << n) - 1 != len(text):
            raise ValueError(f"bit string length {len(text)} is not 2^n - 1")
        return cls(n, tuple(1 if c == "1" else 0 if c == "0" else _bad_bit(c) for c in text))

    @classmethod
    def from_index(cls, n: int, index: int) -> "ButterflyShape":
        """Shape number ``index`` of depth n; bit q of the shape is bit (2^n-1-1-q) of index."""
        T = (1 << n) - 1
        if not 0 <= index < (1 << T):
            raise ValueError("index out of range")
        return cls(n, tuple((index >> (T - 1 - q)) & 1 for q in range(T)))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def _bad_bit(c: str) -> int:
    raise ValueError(f"invalid bit character {c!r}")


def build_simple(bits: Sequence[int]) -> Word:
    """Word of the simple butterfly permutation with the given factor bits.

    ``bits[0]`` is the innermost factor; bit 1 means the factor is 21.

    >>> build_simple((1, 0, 0))
    (2, 1, 4, 3, 6, 5, 8, 7)
    >>> build_simple((1, 0, 1))
    (6, 5, 8, 7, 2, 1, 4, 3)
    """
    bs = tuple(bits)
    if not bs:
        raise ValueError("need at least one bit")
    if any(b not in (0, 1) for b in bs):
        raise ValueError("bits must be 0 or 1")
    w = (2, 1) if bs[0] else (1, 2)
    for b in bs[1:]:
        M = len(w)
        hi = tuple(x + M for x in w)
        w = hi + w if b else w + hi
    return w


def build_nonsimple(shape: ButterflyShape) -> Word:
    """Word of the nonsimple butterfly permutation encoded by ``shape``.

    >>> build_nonsimple(ButterflyShape.from_string("101"))
    (3, 4, 2, 1)
    """
    bits = shape.bits

    def rec(idx: int, level: int) -> tuple[int, ...]:
        if level == 0:
            return (1,)
        w1 = rec(2 * idx + 1, level - 1)
        w2 = rec(2 * idx + 2, level - 1)
        M = 1 << (level - 1)
        if bits[idx]:
            return tuple(x + M for x in w1) + w2
        return w1 + tuple(x + M for x in w2)

    return rec(0, shape.depth)


def is_nonsimple_butterfly(p: Sequence[int]) -> bool:
    """Whether the word splits recursively into contiguous value half-blocks."""
    w = check_word(p)
    return _is_nonsimple(w)


def _is_nonsimple(w: tuple[int, ...]) -> bool:
    n = len(w)
    if n & (n - 1):
        return False
    if n == 1:
        return True
    M = n // 2
    first, second = w[:M], w[M:]
    if max(first) == M:
        return _is_nonsimple(first) and _is_nonsimple(tuple(x - M for x in second))
    if min(first) == M + 1:
        return _is_nonsimple(tuple(x - M for x in first)) and _is_nonsimple(second)
    return False


def is_simple_butterfly(p: Sequence[int]) -> bool:
    """Nonsimple structure with identical shifted halves at every level."""
    w = check_word(p)
    return _is_simple(w)


def _is_simple(w: tuple[int, ...]) -> bool:
    n = len(w)
    if n & (n - 1):
        return False
    if n == 1:
        return True
    M = n // 2
    first, second = w[:M], w[M:]
    if max(first) == M:
        lo, hi = first, tuple(x - M for x in second)
    elif min(first) == M + 1:
        lo, hi = second, tuple(x - M for x in first)
    else:
        return False
    return lo == hi and _is_simple(lo)


def enumerate_simple(n: int) -> Iterator[Word]:
    """All 2^n simple butterfly words of length 2^n, one per bit tuple."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for i in range(1 << n):
        yield build_simple(tuple((i >> j) & 1 for j in range(n)))


def enumerate_nonsimple(n: int, cap: int = DEFAULT_NONSIMPLE_CAP) -> Iterator[Word]:
    """All 2^(2^n - 1) nonsimple butterfly words, in shape-index order.

    Guarded by ``cap`` because the count is doubly exponential in n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds cap={cap}; pass a larger cap explicitly")
    T = (1 << n) - 1
    return (build_nonsimple(ButterflyShape.from_index(n, i)) for i in range(1 << T))


def stats_recursion_simple(bits: Sequence[int]) -> tuple[int, int, int]:
    """(h, l, r) of the simple butterfly tree, via the one-step edge recursion.

    Base: bit 0 -> (1, 0, 1), bit 1 -> (1, 1, 0). Each further factor adds
    (r+1)*(1,0,1) for bit 0 and (l+1)*(1,1,0) for bit 1.

    >>> stats_recursion_simple((1, 0, 0))
    (4, 1, 3)
    """
    bs = tuple(bits)
    if not bs:
        raise ValueError("need at least one bit")
    h, l, r = (1, 1, 0) if bs[0] else (1, 0, 1)
    for b in bs[1:]:
        if b:
            h, l, r = h + l + 1, 2 * l + 1, r
        else:
            h, l, r = h + r + 1, l, 2 * r + 1
    return h, l, r


def stats_recursion_nonsimple(shape: ButterflyShape) -> tuple[int, int, int]:
    """(h, l, r) of the nonsimple butterfly tree: :func:`stats_from_shape_bits` on one row.

    >>> stats_recursion_nonsimple(ButterflyShape.from_string("101"))
    (2, 2, 1)
    """
    h, l, r = stats_from_shape_bits(shape.depth, np.array([shape.bits]))
    return int(h[0]), int(l[0]), int(r[0])


# ---------------------------------------------------------------------------
# Vectorized builders (one word per row) used by enumeration-heavy checks
# and Monte Carlo experiments.
# ---------------------------------------------------------------------------


def all_simple_words(n: int) -> np.ndarray:
    """(2^n, 2^n) matrix whose row i is build_simple of the bits of i (lsb innermost)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    B = 1 << n
    W = np.ones((B, 1), dtype=np.int64)
    for j in range(n):
        M = W.shape[1]
        bit = ((np.arange(B, dtype=np.int64) >> j) & 1)[:, None]
        lo = np.where(bit == 1, W + M, W)
        hi = np.where(bit == 1, W, W + M)
        W = np.concatenate([lo, hi], axis=1)
    return W


def words_from_shape_bits(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, 2^n) words from a (B, 2^n - 1) matrix of level-ordered shape bits."""
    bits = np.asarray(bits)
    B = bits.shape[0]
    if bits.shape[1] != (1 << n) - 1:
        raise ValueError("wrong number of shape bits")
    W = np.ones((B, 1 << n), dtype=np.int64)
    for k in range(1, n + 1):
        M = 1 << (k - 1)
        lev = n - k
        first = (1 << lev) - 1
        P = 1 << lev
        Wb = W.reshape(B, P, 2, M)
        out = np.empty((B, P, 2 * M), dtype=np.int64)
        for t in range(P):
            bit = bits[:, first + t][:, None]
            w1 = Wb[:, t, 0, :]
            w2 = Wb[:, t, 1, :]
            out[:, t, :M] = np.where(bit == 1, w1 + M, w1)
            out[:, t, M:] = np.where(bit == 1, w2, w2 + M)
        W = out.reshape(B, P * 2 * M)
    return W


def stats_from_shape_bits(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of the nonsimple butterfly trees of a (B, 2^n - 1)
    matrix of level-ordered shape bits, evaluated from the leaves up.

    A bottom node (one bit, two keys) is (1, 1, 0) for bit 1 and (1, 0, 1)
    for bit 0. With (H1, L1, R1) and (H2, L2, R2) the child triples, a node
    combines as

        bit 0:  (max(H1, R1 + 1 + H2), L1, R1 + 1 + R2)
        bit 1:  (max(H1, L1 + 1 + H2), L1 + 1 + L2, R1)

    matching the word convention of :func:`build_nonsimple` (the first
    child owns the root block, and the second child's tree hangs below the
    first child's edge on the side of its block). One numpy step per level,
    on (B, 2^d) arrays; no word or tree is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != (1 << n) - 1:
        raise ValueError("wrong number of shape bits")
    b = bits[:, (1 << (n - 1)) - 1 :] == 1
    h = np.ones(b.shape, dtype=np.int64)
    l = b.astype(np.int64)
    r = 1 - l
    for d in range(n - 2, -1, -1):
        b = bits[:, (1 << d) - 1 : (1 << (d + 1)) - 1] == 1
        L1, R1 = l[:, 0::2], r[:, 0::2]
        edge = np.where(b, L1, R1) + 1
        h = np.maximum(h[:, 0::2], edge + h[:, 1::2])
        l, r = np.where(b, edge + l[:, 1::2], L1), np.where(b, R1, edge + r[:, 1::2])
    return h[:, 0], l[:, 0], r[:, 0]


def all_nonsimple_words(n: int, cap: int = DEFAULT_NONSIMPLE_CAP) -> np.ndarray:
    """(2^(2^n - 1), 2^n) matrix of all nonsimple words, row i = shape index i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds cap={cap}; pass a larger cap explicitly")
    T = (1 << n) - 1
    idx = np.arange(1 << T, dtype=np.int64)
    bits = np.empty((1 << T, T), dtype=np.int64)
    for q in range(T):
        bits[:, q] = (idx >> (T - 1 - q)) & 1
    return words_from_shape_bits(n, bits)
