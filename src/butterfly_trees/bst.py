"""
Binary search trees built by sequential insertion of a permutation word.

Keys are the word values 1..n; no balancing, no deletion. ``summary``
gets (height, top-left edge, top-right edge) in one O(n) scan of one word,
without building the tree.

The scan deletes keys from a doubly linked list over 0..n+1 in reverse
insertion order. The deleted key v is a leaf of the tree built by the
keys up to and including it, and its neighbours p < v < s in the list are
its insertion-time predecessor and successor. It stores those pairs and
replays insertion with the identity depth(v) = 1 + max(depth(p), depth(s))
(sentinel depths -1): the parent of a new key is whichever neighbour was
inserted later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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

