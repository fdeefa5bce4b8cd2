"""
Binary search trees built by sequential insertion of a permutation word.

Keys are the word values 1..n; no balancing, no deletion. Two equivalent
ways to get (height, top-left edge, top-right edge) are provided, neither
of which builds the tree:

- ``summary`` -> O(n) scan of one word,
- ``batch_summaries`` -> one vectorized pass per column across many words.

Both scans delete keys from a doubly linked list over 0..n+1 in reverse
insertion order. The deleted key v is a leaf of the tree built by the
keys up to and including it, and its neighbours p < v < s in the list are
its insertion-time predecessor and successor.

``summary`` stores those pairs and replays insertion with the identity
depth(v) = 1 + max(depth(p), depth(s)) (sentinel depths -1): the parent
of a new key is whichever neighbour was inserted later.

``batch_summaries`` keeps no depths. Every live key k owns gap[k], the
node count of the longest root-to-leaf path in the final subtree that
fills the interval between k and its live successor. Deleting v joins the
intervals (p, v) and (v, s) under v, so gap[p] = 1 + max(gap[p], gap[v]);
when every key is gone, gap[0] is the node count of the tallest path and
h = gap[0] - 1. The gap lives in the high half of the next-link,
link[k] = gap[k] << 32 | nxt[k], so the pass keeps two arrays (``link``
and ``prv``) and one integer maximum of two links carries the larger gap.
The edges need no tree: key 1 lies under every prefix minimum of the word
and key n under every prefix maximum, so l and r are those record counts
minus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LOW = (1 << 32) - 1  # low half of a packed link: the next slot


@dataclass(frozen=True)
class BstSummary:
    """Height, top-left edge length, top-right edge length, node count."""

    h: int
    l: int
    r: int
    size: int


def check_word(word: Sequence[int]) -> tuple[int, ...]:
    """Validate that ``word`` is a permutation of {1..n}, n >= 1; return it as a tuple.

    >>> check_word([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(word)
    n = len(w)
    if n == 0:
        raise ValueError("empty word: permutations here have length >= 1")
    mask = 0
    for x in w:
        if not 1 <= x <= n:
            raise ValueError(f"word entry {x} outside 1..{n}")
        mask |= 1 << x
    if mask != ((1 << (n + 1)) - 2):
        raise ValueError("word is not a bijection of {1..%d}" % n)
    return w


def summary(word: Sequence[int]) -> BstSummary:
    """(h, l, r, size) of the BST of ``word``, computed in O(n) without the tree."""
    w = check_word(word)
    n = len(w)
    nxt = list(range(1, n + 3))
    prv = list(range(-1, n + 1))
    preds = [0] * n
    succs = [0] * n
    for i in range(n - 1, -1, -1):
        v = w[i]
        p = prv[v]
        s = nxt[v]
        preds[i] = p
        succs[i] = s
        nxt[p] = s
        prv[s] = p
    depth = [-1] * (n + 2)
    for i in range(n):
        v = w[i]
        dp = depth[preds[i]]
        ds = depth[succs[i]]
        depth[v] = (dp if dp > ds else ds) + 1
    return BstSummary(max(depth[1 : n + 1]), depth[1], depth[n], n)


def batch_summaries(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays for a (B, n) matrix of 1-based words, one tree per row.

    Raises ValueError unless ``words`` is a 2-d integer array with n >= 1
    whose rows are permutations of 1..n, and unless B*(n+2) < 2^32, the
    slot count that the 32-bit next-link field can address.
    """
    W = np.asarray(words)
    if W.ndim != 2 or W.shape[1] == 0:
        raise ValueError(f"expected a 2-d array of words with n >= 1, got shape {W.shape}")
    if not np.issubdtype(W.dtype, np.integer):
        raise ValueError(f"expected an integer array of words, got dtype {W.dtype}")
    B, n = W.shape
    m = n + 2
    if B * m > _LOW:
        raise ValueError(f"{B} rows of {n} keys need {B * m} slots; a 32-bit next-link addresses fewer than 2^32")
    if W.size and (W.min() < 1 or W.max() > n):
        raise ValueError(f"word values must lie in 1..{n}")
    records = np.empty(W.shape, dtype=W.dtype)
    l = np.count_nonzero(np.minimum.accumulate(W, axis=1, out=records) == W, axis=1) - 1
    r = np.count_nonzero(np.maximum.accumulate(W, axis=1, out=records) == W, axis=1) - 1
    del records  # freed before the pass allocates its two link arrays
    # key k of row b lives in slot b*(n+2) + k: live neighbours of a key in one row tend to
    # share its cache line; link[k] = gap[k] << 32 | nxt[k], every gap starting at 0
    base = np.arange(0, B * m, m, dtype=np.int64)
    link = np.arange(1, B * m + 1, dtype=np.int64)
    prv = np.arange(-1, B * m - 1, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        v = np.add(W[:, j], base, dtype=np.int64)  # uint64 + int64 would promote to float64
        lv = link[v]
        p = prv[v]
        s = lv & _LOW
        # the high halves decide the maximum; | LOW then + 1 clears the low half and adds one
        t = np.maximum(link[p], lv)
        t |= _LOW
        t += 1
        t += s
        link[p] = t
        prv[s] = p
    heads = link[::m]
    # a key missing from a row is never deleted, and no relink jumps over it
    if not np.array_equal(heads & _LOW, np.arange(n + 1, B * m, m)):
        raise ValueError("every row must be a permutation of 1..n")
    return (heads >> 32) - 1, l, r
