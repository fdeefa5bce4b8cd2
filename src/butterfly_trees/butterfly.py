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

On 0-based positions i both families are XOR masks: a simple word is
1 + (i ^ m), bit j of m being factor bit j, and a nonsimple word is
1 + (i ^ f(i)), bit k-1 of f(i) being the bit of the level-k node that
owns i. Every builder computes one of these two forms, and
:func:`class_indices` inverts both.

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

    ``bits[0]`` is the innermost factor; bit 1 means the factor is 21. The
    word is ``1 + (i ^ m)`` at 0-based position i, with bit j of the mask m
    equal to ``bits[j]``.

    >>> build_simple((1, 0, 0))
    (2, 1, 4, 3, 6, 5, 8, 7)
    >>> build_simple((1, 0, 1))
    (6, 5, 8, 7, 2, 1, 4, 3)
    >>> m = 0b101
    >>> build_simple((1, 0, 1)) == tuple(1 + (i ^ m) for i in range(8))
    True
    """
    bs = tuple(bits)
    if not bs:
        raise ValueError("need at least one bit")
    if any(b not in (0, 1) for b in bs):
        raise ValueError("bits must be 0 or 1")
    m = sum(b << j for j, b in enumerate(bs))
    return tuple(1 + (i ^ m) for i in range(1 << len(bs)))


def build_nonsimple(shape: ButterflyShape) -> Word:
    """Word of the nonsimple butterfly permutation encoded by ``shape``.

    >>> build_nonsimple(ButterflyShape.from_string("101"))
    (3, 4, 2, 1)
    """
    return tuple(words_from_shape_bits(shape.depth, np.array([shape.bits]))[0].tolist())


def is_nonsimple_butterfly(p: Sequence[int]) -> bool:
    """Whether the word splits recursively into contiguous value half-blocks."""
    return bool(class_indices(np.array([check_word(p)]), "nonsimple")[0] >= 0)


def is_simple_butterfly(p: Sequence[int]) -> bool:
    """Nonsimple structure with identical shifted halves at every level."""
    return bool(class_indices(np.array([check_word(p)]), "simple")[0] >= 0)


def enumerate_simple(n: int) -> Iterator[Word]:
    """All 2^n simple butterfly words of length 2^n, one per bit tuple."""
    return (tuple(row) for row in all_simple_words(n).tolist())


def enumerate_nonsimple(n: int, cap: int = DEFAULT_NONSIMPLE_CAP) -> Iterator[Word]:
    """All 2^(2^n - 1) nonsimple butterfly words, in shape-index order.

    Guarded by ``cap`` because the count is doubly exponential in n; the
    words are built 4096 shapes at a time.
    """
    _check_cap(n, cap)
    total = 1 << ((1 << n) - 1)
    chunks = (_index_bits(n, np.arange(lo, min(lo + 4096, total))) for lo in range(0, total, 4096))
    return (tuple(row) for bits in chunks for row in words_from_shape_bits(n, bits).tolist())


def _check_cap(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds cap={cap}; pass a larger cap explicitly")


def _index_bits(n: int, index: np.ndarray) -> np.ndarray:
    """Level-ordered shape bits of the given shape indices, one row each, root most significant."""
    T = (1 << n) - 1
    return (index[:, None] >> np.arange(T - 1, -1, -1)) & 1


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
    """(2^n, 2^n) matrix whose row m is build_simple of the bits of m (lsb innermost): 1 + (i ^ m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1 << n, dtype=np.int64)
    return 1 + (i[None, :] ^ i[:, None])


def words_from_shape_bits(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, 2^n) words from a (B, 2^n - 1) matrix of level-ordered shape bits.

    Row t is ``1 + (i ^ f)``, where bit k-1 of f[i] is the bit of the
    level-k node that owns position i:

    >>> bits = np.array([[1, 0, 1]])  # root 1, left leaf 0, right leaf 1
    >>> f = np.array([0b10, 0b10, 0b11, 0b11])
    >>> words_from_shape_bits(2, bits).tolist() == [(1 + (np.arange(4) ^ f)).tolist()]
    True
    """
    bits = _checked_bits(n, bits).astype(np.int64, copy=False)
    i = np.arange(1 << n, dtype=np.int64)
    f = np.zeros((bits.shape[0], 1 << n), dtype=np.int64)
    for k in range(1, n + 1):
        f |= bits[:, (1 << (n - k)) - 1 + (i >> k)] << (k - 1)
    return 1 + (i ^ f)


def _checked_bits(n: int, bits: np.ndarray) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != (1 << n) - 1:
        raise ValueError(f"need a (B, {(1 << n) - 1}) matrix of shape bits, got shape {bits.shape}")
    if bits.dtype.kind not in "biu" or bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("shape bits must be integers 0 or 1")
    return bits


def class_indices(words: np.ndarray, family: str) -> np.ndarray:
    """Class index of each row of a (B, N) word matrix in ``family``, -1 for non-members.

    With f = (word - 1) ^ i, a word is simple iff f is constant, with index
    f[0]; it is nonsimple iff bit k-1 of f is constant on every aligned
    block of 2^k positions, with index its level-ordered shape bits read
    root first (as :meth:`ButterflyShape.from_index`). The index is the
    word's row in :func:`all_simple_words` or :func:`all_nonsimple_words`;
    past N = 64 nonsimple indices are Python ints in an object array.

    >>> class_indices(np.array([[3, 4, 2, 1], [3, 4, 1, 2]]), "nonsimple").tolist()
    [5, 4]
    >>> class_indices(np.array([[3, 4, 2, 1], [3, 4, 1, 2]]), "simple").tolist()
    [-1, 2]
    """
    if family not in ("simple", "nonsimple"):
        raise ValueError(f"unknown family {family!r}")
    words = np.asarray(words, dtype=np.int64)
    B, N = words.shape
    if N & (N - 1):
        return np.full(B, -1)
    n = N.bit_length() - 1
    i = np.arange(N)
    f = (words - 1) ^ i
    ok = ((f >> n) == 0).all(axis=1)
    if family == "simple":
        return np.where(ok & (f == f[:, :1]).all(axis=1), f[:, 0], -1)
    weights = np.array([1 << q for q in range(N - 2, -1, -1)], dtype=np.int64 if N <= 64 else object)
    index, drift = 0, np.zeros_like(f)
    # bit k-1 of f must equal its value at the start of the level-k block, which is that node's bit
    for k in range(1, n + 1):
        drift |= (f ^ f[:, (i >> k) << k]) & (1 << (k - 1))
        first = (1 << (n - k)) - 1
        index = index + ((f[:, :: 1 << k] >> (k - 1)) & 1) @ weights[first : 2 * first + 1]
    return np.where(ok & (drift == 0).all(axis=1), index, -1)


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
    bits = _checked_bits(n, bits)
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
    _check_cap(n, cap)
    return words_from_shape_bits(n, _index_bits(n, np.arange(1 << ((1 << n) - 1))))
