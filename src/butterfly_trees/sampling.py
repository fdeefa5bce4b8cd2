"""
Seeded batch samplers: the trees of nonsimple butterfly words from their
shapes (a draw of the top levels' bits, then one uniform class index per
bottom subtree of up to four levels), and those of uniform S_n and
S_n wr S_m words (Theorem 2's block model) by root splits, with no word
built, a subtree on an edge of at most 20 keys drawing its whole (h, l, r),
and one off the edges of at most 64 keys its height, from exact alias tables;
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
call. The alias draws of small subtrees read whole 64-bit words instead
(full-range uint64 ``integers`` draws): each word's low bits pick a column of
Walker's alias table (Vose, IEEE TSE 1991), and its other bits, read as a
binary fraction and extended by further words in the rare case of a tie,
are compared with the column's exact threshold. The tables are built in
integers, so every small tree comes exactly as often as its insertion
orders.

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

_SMALL = 20  # an interval on an edge of at most this many keys draws its whole (h, l, r) from an alias table
_SMALL_OFF = 64  # an interval off the edges of at most this many keys draws its height from an alias table
_BLOCK = 1 << 20  # the alias draw reads its words and builds its codes this many intervals at a time
_SIZE = (1 << 30) - 1  # size field of a live interval
_LEFT, _RIGHT = 1 << 30, 1 << 31  # edge bits of a live interval
_TREE = -1 << 32  # tree field of a live interval
# the halves of l | r << 32 that a small interval's edge bits keep, indexed by right << 1 | left
_EDGE_HALVES = np.array([0, 0xFFFFFFFF, -1 << 32, -1], dtype=np.int64)
# the largest small left and right kid of a large interval, indexed by its right << 1 | left edge bits
_CUTS = np.array([[_SMALL_OFF, _SMALL_OFF], [_SMALL, _SMALL_OFF], [_SMALL_OFF, _SMALL], [_SMALL, _SMALL]], dtype=np.int64)
_KEEP = np.array([_TREE | _LEFT, _TREE | _RIGHT], dtype=np.int64)  # what the left and right kid keep of its parent
_ALIAS_LOCK = threading.Lock()  # two threads' first uniform_bst_stats build each alias table once


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


def _height_counts() -> list[list[int]]:
    """C[s][h]: the insertion orders of s <= _SMALL_OFF keys whose BST has height
    h, in Python ints; C[0] is empty.

    F_h(s), the orders of s keys of height at most h, is s! for s <= h + 1 and
    otherwise sum_k C(s-1, k) F_{h-1}(k) F_{h-1}(s-1-k) over the first key's
    rank k, whose terms at k and s-1-k are equal; F_{-1} is 1 on the empty
    tree and 0 elsewhere. First differences along h give the law.
    """
    below = [1] + [0] * _SMALL_OFF  # F_{h-1}(s), from h = 0
    C = [[] for _ in range(_SMALL_OFF + 1)]
    for h in range(_SMALL_OFF):
        at = [math.factorial(s) for s in range(min(h + 2, _SMALL_OFF + 1))]
        for m in range(h + 1, _SMALL_OFF):  # s - 1
            f = sum(math.comb(m, k) * below[k] * below[m - k] for k in range((m + 1) // 2)) << 1
            if m % 2 == 0:
                f += math.comb(m, m // 2) * below[m // 2] ** 2
            at.append(f)
        for s in range(1, _SMALL_OFF + 1):
            C[s].append(at[s] - below[s])
        below = at
    for s in range(1, _SMALL_OFF + 1):
        del C[s][s:]  # heights above s - 1 have no orders
        assert sum(C[s]) == math.factorial(s)
    return C


def _alias_columns(laws: list[tuple[list[int], list[int]]], bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Walker alias columns (thr, codes, num) of the laws (codes, counts)
    of the sizes s = 1, 2, ..., row s of each array, 2^bits columns a row; row 0
    is never drawn.

    An outcome of s keys weighs its count of the s! orders times 2^bits, so each
    column holds s!. Vose's pairing, in Python ints, leaves each column num of
    its primary, codes[s, c, 0], and the rest to its alias, codes[s, c, 1].
    thr is num / s! as a binary fraction of 64 - bits bits, rounded down, which
    :func:`_alias_codes` compares with a word's high bits; num keeps the
    threshold exact for a tie.
    """
    cols = 1 << bits
    thr = np.zeros((len(laws) + 1, cols), dtype=np.uint64)
    num = np.zeros((len(laws) + 1, cols), dtype=object)
    codes = np.zeros((len(laws) + 1, cols, 2), dtype=np.int64)
    for s, (code, count) in enumerate(laws, 1):
        cap = math.factorial(s)
        pad = [0] * (cols - len(code))  # empty columns: weight 0, always their alias
        code = code + pad
        weight = [c << bits for c in count] + pad
        alias = list(range(cols))
        small = [c for c in alias if weight[c] < cap]
        large = [c for c in alias if weight[c] >= cap]
        while small:
            c, big = small.pop(), large.pop()
            alias[c] = big
            weight[big] -= cap - weight[c]
            (small if weight[big] < cap else large).append(big)
        assert all(weight[c] == cap for c in large)
        num[s] = weight
        thr[s] = [(w << (64 - bits)) // cap for w in weight]
        codes[s, :, 0] = code
        codes[s, :, 1] = [code[c] for c in alias]
    for a in (thr, num, codes):
        a.flags.writeable = False
    return thr, codes, num


@functools.cache
def _alias_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias columns (:func:`_alias_columns`) of the (h, l, r) law of every size
    s <= _SMALL, 2^11 columns a size, more than the 1483 triples of 20 keys;
    each code is h | l << 24 | r << 56, so that code >> 24 is l | r << 32, the
    layout of the edge sums. Built on first use, not at import."""
    T = _law_counts()
    laws = []
    for s in range(1, _SMALL + 1):
        at = np.nonzero(T[s])
        h, l, r = (i - 1 for i in at)
        laws.append(((h | l << 24 | r << 56).tolist(), T[s][at].tolist()))
    return _alias_columns(laws, 11)


@functools.cache
def _height_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias columns (:func:`_alias_columns`) of the height law of every size
    s <= _SMALL_OFF, 2^6 columns a size, one for each height up to 63; each
    code is the height. Built on first use, not at import."""
    return _alias_columns([(list(range(s)), counts) for s, counts in enumerate(_height_counts()) if s], 6)


def _alias_codes(small: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray], g: np.random.Generator) -> np.ndarray:
    """The code of each small interval from one exact alias draw of ``table``
    (:func:`_alias_columns`) at its size, its low bits, ``& _SIZE``.

    The interval reads one full-range uint64 word of ``g``. Its low ``bits`` pick
    the column, and its other 64 - bits bits, read as a binary fraction U,
    pick the primary if U is below the column's threshold: thr, unless the bits
    equal it, where further words extend U and are compared with the
    threshold's next exact bits (:func:`_below`), after the words of the
    sub-block. So each outcome comes exactly as often as its orders. Sub-blocks
    of at most _BLOCK intervals bound the temporaries.
    """
    thr, codes, num = table
    bits = thr.shape[1].bit_length() - 1
    thr, codes = thr.ravel(), codes.ravel()
    out = np.empty(small.size, dtype=np.int64)
    for lo in range(0, small.size, _BLOCK):
        hi = min(lo + _BLOCK, small.size)
        w = g.integers(0, 1 << 64, size=hi - lo, dtype=np.uint64)
        at = small[lo:hi] & _SIZE
        at <<= bits
        at |= w.view(np.int64) & (1 << bits) - 1
        w >>= bits
        t = thr.take(at)
        alias = w >= t
        for i in np.flatnonzero(w == t).tolist():
            s, c = divmod(int(at[i]), 1 << bits)
            alias[i] = not _below(int(num[s, c]), math.factorial(s), int(w[i]), 64 - bits, g)
        at <<= 1
        at |= alias
        codes.take(at, out=out[lo:hi], mode="clip")  # "clip" writes out unbuffered; at is in range
    return out


def _below(num: int, den: int, u: int, k: int, g: np.random.Generator) -> bool:
    """Whether a uniform fraction whose first k bits are u, which equal those of
    num / den, is below num / den, reading its next bits from ``g``'s 64-bit
    words until the two differ. Equal to the last bit means not below."""
    rest = (num << k) - u * den  # num / den = (u + rest / den) / 2^k
    while rest:
        q, rest = divmod(rest << 64, den)
        x = int(g.integers(0, 1 << 64, dtype=np.uint64))
        if x != q:
            return x < q
    return False


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


def _small_codes(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """h | l << 24 | r << 56 of ``count`` iid uniform BSTs on 1 <= n <= _SMALL
    keys, one alias draw each."""
    with _ALIAS_LOCK:
        table = _alias_table()
    return _alias_codes(np.broadcast_to(np.int64(n), count), table, g)  # every tree has n keys: no count-long input


def uniform_bst_stats(
    n: int, count: int, g: np.random.Generator, edges: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(h, l, r) int64 arrays of ``count`` iid uniform BSTs on n keys, 1 <= n < 2^30;
    with ``edges=False``, (h, None, None) from the same draws, the edge work skipped.

    Root splits, level by level: the root of a uniform BST has a uniform
    rank, and its two subtrees are independent uniform BSTs on the keys
    either side. An interval is one int64,
    tree << 32 | right << 31 | left << 30 | size, whose edge bits _RIGHT and
    _LEFT say that every split above it went right or left, so that its root
    lies on the top-right or top-left edge; the root has both. An interval
    on an edge of at most ``_SMALL`` keys is small: it draws its whole
    (h, l, r) with one exact alias draw from the law of all its insertion
    orders (:func:`_alias_table`), so a tree on n <= _SMALL keys is one
    draw. An interval off the edges adds only its height, so it is small
    up to ``_SMALL_OFF`` keys, and draws its height alone
    (:func:`_height_table`). Otherwise a level is the array of its
    ``large`` intervals. They draw their root ranks in one
    :func:`_root_ranks` call, numpy's ``integers`` ranks without the GIL,
    and each interval's two kids are split once, each against the cut of
    its side (``_CUTS``), into the next level's nonempty small and large
    intervals, in order; the small ones off the edges, then those on an
    edge, draw their trees. A kid takes its parent's tree and its own
    side's edge bit with one mask, over its size. Each of a tree's l and r
    comes from the one interval where its edge ends: a large interval whose
    kid on that side is empty, read off the kid as its edge bit over a size
    of 0, adds its depth; a small interval on the edge adds its depth plus
    its own tree's l or r. So every interval adds its share to
    l | r << 32, zero off the edges; ``edges=False`` draws the same words
    and sums nothing, for a caller that reads only h. A level's arrays are freed
    before the next level's are made, so that two calls on two threads fit
    in the memory that one took while it kept them. ``g`` must not be drawn
    from on another thread during the call.
    """
    if not 1 <= n <= _SIZE:
        raise ValueError(f"n must be in 1..{_SIZE}, got {n}")
    if n <= _SMALL:
        code = _small_codes(n, count, g)
        if not edges:
            code &= 0xFF
            return code, None, None
        h, l = code & 0xFF, code >> 24
        l &= 0xFF
        code >>= 56  # r in place, so that h, l and r take no more memory than three arrays
        return h, l, code
    with _ALIAS_LOCK:
        rim_table, off_table = _alias_table(), _height_table()
    h = np.zeros(count, dtype=np.int64)
    lr = np.zeros(count, dtype=np.int64) if edges else None  # l | r << 32
    large = np.arange(count, dtype=np.int64) << 32 | _LEFT | _RIGHT | n
    depth = 0
    # every partition is a compress: numpy 2.4 takes 1.7 ms to subscript 450K
    # int64s by a half-true bool mask, and compress 0.21 ms
    while large.size:
        rest = large & _SIZE  # the size, until the root rank k is drawn
        k = _root_ranks(rest, g)
        rest -= 1
        rest -= k
        # the kids, still bare sizes, split once into the nonempty small and the
        # large, each against the cut of its side; then, in place, each keeps its
        # parent's tree and its parent's edge bit on its side
        side = large >> 30
        side &= 3
        cut = _CUTS.take(side, axis=0).ravel()
        del side
        kids = _pairs(k, rest)
        del k, rest
        big = kids > cut
        del cut
        kept = kids > 0
        kept ^= big
        pair = kids.reshape(-1, 2)
        pair |= large[:, None] & _KEEP
        del large, pair
        if edges:
            # an empty kid on an edge ends it at its parent
            k, rest = kids[0::2], kids[1::2]
            lr[k.compress(k & (_LEFT | _SIZE) == _LEFT) >> 32] += depth
            lr[rest.compress(rest & (_RIGHT | _SIZE) == _RIGHT) >> 32] += depth << 32
            del k, rest
        small, large = kids.compress(kept), kids.compress(big)
        del kids, kept, big
        depth += 1

        # the small intervals on an edge, the rim, draw (h, l, r), the rest their heights
        on = (small & (_LEFT | _RIGHT)).astype(bool)
        rim, small = small.compress(on), small.compress(~on)
        del on
        code = _alias_codes(small, off_table, g)
        code += depth
        np.maximum.at(h, small >> 32, code)
        del small, code
        if rim.size:
            code = _alias_codes(rim, rim_table, g)
            tree = rim >> 32
            np.maximum.at(h, tree, (code & 0xFF) + depth)
            if edges:
                # l | r << 32 plus the depth on each, the half of the rim's edge kept
                code >>= 24
                code += depth << 32 | depth
                code &= _EDGE_HALVES.take(rim >> 30 & 3)
                np.add.at(lr, tree, code)
        del rim
    return (h, lr & 0xFFFFFFFF, lr >> 32) if edges else (h, None, None)


def wreath_heights(n: int, m: int, count: int, g: np.random.Generator) -> np.ndarray:
    """Heights of ``count`` iid BSTs of uniform S_n wr S_m words, 1 <= n, m < 2^30.

    Such a tree is an external uniform BST on the m blocks, with an iid
    uniform BST on n keys at every block: its (h, l, r) from
    :func:`uniform_bst_stats`, or for n <= _SMALL its packed alias code.
    The external tree is split top down like those, a live interval being
    tree << 32 | size: the root block of an interval hangs at an offset,
    its left child at offset + l + 1 and its right child at offset + r + 1,
    and the height is max(offset + h) over the blocks.
    """
    if not 1 <= m <= _SIZE:
        raise ValueError(f"m must be in 1..{_SIZE}, got {m}")
    # taken in order, one per block visited; n <= _SMALL keeps one packed code a block,
    # unpacked a level at a time, a third of the memory of three arrays
    packed = 1 <= n <= _SMALL
    blocks = _small_codes(n, count * m, g) if packed else uniform_bst_stats(n, count * m, g)
    h = np.zeros(count, dtype=np.int64)
    live = np.arange(count, dtype=np.int64) << 32 | m
    offset = np.zeros(count, dtype=np.int64)
    used = 0
    while live.size:
        block = slice(used, used + live.size)
        used = block.stop
        if packed:
            code = blocks[block]
            hb, lb, rb = code & 0xFF, code >> 24 & 0xFF, code >> 56
        else:
            hb, lb, rb = (a[block] for a in blocks)
        tree = live >> 32
        np.maximum.at(h, tree, offset + hb)
        size = live & _SIZE
        k = g.integers(0, size)
        tree <<= 32
        kids = _pairs(tree | k, tree | (size - 1 - k))
        offsets = _pairs(offset + lb + 1, offset + rb + 1)
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
