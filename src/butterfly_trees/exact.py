"""
Exact combinatorics backing the height/edge/cycle laws.

Stirling numbers are arbitrary-precision integers, the simple height pmf
and the LIS and cycle laws carry dyadic weights (integer numerators over a
power-of-two denominator), and the bound sequences/constants are double
precision with documented defining formulas. The nonsimple (H, L, R) law is
the one float64 law here, with a stated error bound; its exact integer
counts and rational mean are the tests' oracle.

The level recursions avoid pairwise loops over supports:

- The nonsimple (H, L, R) law is a dense float64 array ``P[h, l, r]`` per
  level. A step conditions on the first copy's edge and takes the height
  maximum from products of CDFs along h, then first differences. The mean
  height at level n sums the same CDF products over level n-1 and never
  builds level n.
- The LIS and cycle laws square their count polynomial by Kronecker
  substitution in decimal slots: the counts are packed into one Decimal,
  squared exactly by libmpdec's number-theoretic transform, and cut back.
  libmpdec transforms 2^m words of 19 digits, or 1.5 * 2^m words when the
  product is longer, and the longer transform costs ~1.6 times as much: a
  square of 155,648 digits (2^14 product words) takes 5.3 ms, one of
  155,700 to 160,000 digits 8.5 ms (2-vCPU Xeon). Every law level's product
  lands ~1.4% past a power of two (n = 10: 1025 slots of 308 digits,
  16,616 words), so only the counts whose square fits the power of two
  below go through the transform (505 of 513 at n = 10), and the last few
  counts, the largest values with the smallest counts, add their cross
  terms in ints.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

LAMBDA = Fraction(3, 2)


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind and the prefix-record law
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def stirling1_row(n: int) -> tuple[int, ...]:
    """Unsigned Stirling-1 row (|s(n,0)|, ..., |s(n,n)|), built up from row 0
    by |s(m,k)| = (m-1)|s(m-1,k)| + |s(m-1,k-1)|."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [(m - 1) * a + b for a, b in zip(row[1:] + [0], row)]
    return tuple(row)


def stirling1_pmf(n: int) -> tuple[Fraction, ...]:
    """pmf (|s(n,k)| / n! for k = 1..n) of the cycle/prefix-record law on S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fact = math.factorial(n)
    row = stirling1_row(n)
    return tuple(Fraction(row[k], fact) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Simple butterfly height law
# ---------------------------------------------------------------------------


def simple_height_counts(n: int) -> dict[int, int]:
    """Height -> count over all 2^n simple butterfly permutations of length 2^n.

    The height with k inner ascents is 2^k + 2^(n-k) - 2, hit by
    C(n, k) + C(n, n-k) bit patterns (folded at k = n/2); C(n, k) is
    carried along the row, as ``math.comb`` per k costs ~15 s at n = 10^4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: dict[int, int] = {}
    c = 1  # C(n, k)
    for k in range(n // 2 + 1):
        counts[(1 << k) + (1 << (n - k)) - 2] = c if k == n - k else 2 * c
        c = c * (n - k) // (k + 1)
    return counts


def simple_height_pmf(n: int) -> dict[int, Fraction]:
    """Exact height pmf of a uniform simple butterfly tree with 2^n nodes."""
    denom = 1 << n
    return {h: Fraction(c, denom) for h, c in simple_height_counts(n).items()}


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def devroye_constant() -> float:
    """Unique x >= 2 with x*log(2e/x) = 1, by bisection on [2, 10] until
    |x*log(2e/x) - 1| <= 1e-12.

    g(x) = x*log(2e/x) - 1 satisfies g(2) = 1 > 0 and is strictly
    decreasing for x > 2, so bisection converges unconditionally.
    """
    g = lambda x: x * math.log(2 * math.e / x) - 1
    lo, hi = 2.0, 10.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = g(mid)
        if abs(v) <= 1e-12:
            return mid
        if v > 0:
            lo = mid
        else:
            hi = mid
    return mid


@dataclass(frozen=True)
class Constants:
    """Growth constants of the butterfly height laws.

    cstar : unique x >= 2 with x log(2e/x) = 1 (uniform-BST height rate)
    alpha : log2(3/2), simple-case growth exponent
    Cstar : 1 + sqrt(8 sqrt(2) - 11), variance-vs-mean^2 ratio bound
    xi    : 1 + sqrt(2 Cstar)/2 = (1 + sqrt(2) + sqrt(2 sqrt(2) - 1))/2
    beta  : log2(xi), nonsimple upper growth exponent
    d     : 2 / (sqrt(2 Cstar) - 1) = 1 / (xi - 3/2)
    """

    cstar: float
    alpha: float
    beta: float
    xi: float
    Cstar: float
    d: float


@cache
def constants() -> Constants:
    Cstar = 1 + math.sqrt(8 * math.sqrt(2) - 11)
    xi = (1 + math.sqrt(2) + math.sqrt(2 * math.sqrt(2) - 1)) / 2
    return Constants(
        cstar=devroye_constant(),
        alpha=math.log2(1.5),
        beta=math.log2(xi),
        xi=xi,
        Cstar=Cstar,
        d=2 / (math.sqrt(2 * Cstar) - 1),
    )


# ---------------------------------------------------------------------------
# Edge and cycle moments, bound sequences
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cycle_moment(k: int) -> Fraction:
    """k-th moment of the scaled cycle-law limit.

    m_0 = m_1 = 1 and, for k >= 2,
    m_k = (lambda - 1)/(lambda^k - 1) * sum_{j=1}^{k-1} C(k, j) m_j m_{k-j}
    with lambda = 3/2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= 1:
        return Fraction(1)
    s = sum(math.comb(k, j) * cycle_moment(j) * cycle_moment(k - j) for j in range(1, k))
    return (LAMBDA - 1) / (LAMBDA**k - 1) * s


@dataclass(frozen=True)
class BoundSequences:
    """Companion sequences (a_n, b_n) dominating mean and variance of the height."""

    a: tuple[float, ...]
    b: tuple[float, ...]


def bound_sequences(n_max: int) -> BoundSequences:
    """Evaluate the displayed (a_n, b_n) recursions from a_0 = b_0 = 0.

    a_{n+1} = lam^n + a_n + sqrt(2 b_n)/2
    b_{n+1} = b_n + (13/12) lam^{2n} + lam^n + (lam^n + 1) a_n / 2
              + sqrt(1/3) lam^n sqrt(b_n + a_n^2)
              + sqrt(2 b_n (b_n + a_n^2))
              + (sqrt(1/3) lam^n + 1/2) sqrt(2 b_n)
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam = 1.5
    a = [0.0]
    b = [0.0]
    for n in range(n_max):
        ln = lam**n
        an, bn = a[-1], b[-1]
        a.append(ln + an + 0.5 * math.sqrt(2 * bn))
        b.append(
            bn
            + (13 / 12) * ln * ln
            + ln
            + 0.5 * (ln + 1) * an
            + math.sqrt(1 / 3) * ln * math.sqrt(bn + an * an)
            + math.sqrt((bn + an * an) * 2 * bn)
            + (math.sqrt(1 / 3) * ln + 0.5) * math.sqrt(2 * bn)
        )
    return BoundSequences(tuple(a), tuple(b))


def nonsimple_mean_bounds(n: int) -> tuple[float, float]:
    """(lower, upper) bounds on the mean nonsimple butterfly tree height.

    lower = 2*(3/2)^n - 2, upper = (xi^n - (3/2)^n)/(xi - 3/2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    c = constants()
    lam = 1.5
    lower = 2 * lam**n - 2
    upper = (c.xi**n - lam**n) / (c.xi - lam)
    return lower, upper


# ---------------------------------------------------------------------------
# Joint (H, L, R) law of nonsimple butterfly trees, in float64
# ---------------------------------------------------------------------------


def _height_edge_cdf(P: np.ndarray) -> np.ndarray:
    """F[h, c] = P(H <= h, R = c) from the law ``P[h, l, r]`` of one level."""
    return np.cumsum(P.sum(axis=1), axis=0)


def _wreath_step(P: np.ndarray) -> np.ndarray:
    """Level-(k+1) law from the level-k law ``P[h, l, r]`` of shape (D, D, D).

    Bit 0 maps the iid pair to (max(H1, R1+1+H2), L1, R1+1+R2), so it needs
    only the (H2, R2) marginal of the second copy. For each R1 = c,
    P(max(H1, c+1+H2) <= h) is the CDF product F1(h)·F2(h-c-1), with the fair
    bit's 1/2 folded into F2; first differences along h give the point
    masses, which all lie in h = c+1 .. c+D. Bit 1 is the mirror image of
    bit 0, and the law is symmetric in (L, R), so its masses are bit 0's with
    L and R swapped.
    """
    D = P.shape[0]
    F1 = np.cumsum(P, axis=0)  # F1[h, l, c] = P(H1 <= h, L1 = l, R1 = c)
    F2 = 0.5 * _height_edge_cdf(P)  # F2[h, r] = P(H2 <= h, R2 = r) / 2
    new = np.zeros((2 * D, 2 * D, 2 * D))
    for c in range(D):
        m = D - c  # L1 < D - c: the two top edges share only the root
        f1 = F1[np.minimum(np.arange(c + 1, c + D + 1), D - 1), :m, c]
        cdf = f1[:, :, None] * F2[:, None, :]  # rows h = c+1 .. c+D
        new[c + 1 : c + D + 1, :m, c + 1 : c + D + 1] += np.diff(cdf, axis=0, prepend=np.zeros_like(cdf[:1]))
    return new + new.transpose(0, 2, 1)


def triple_law(n: int) -> np.ndarray:
    """Joint (H, L, R) law at level n as float64 probabilities ``P[h, l, r]``,
    from two iid level-(n-1) copies through the deterministic edge recursion
    with a fair outer bit.

    ``P`` is dense of side 2^n; level 0 is the one-node tree (0, 0, 0). See
    :func:`_wreath_step` for one step. The exact masses are dyadic with
    denominator 2^(2^n - 1); every entry is exact through level 6 and within
    2^-52 of its exact mass at level 7 (1.7e-19 at most), as the tests check
    against the integer counts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    P = np.ones((1, 1, 1))
    for _ in range(n):
        P = _wreath_step(P)
    return P


def exact_mean_height(n: int) -> float:
    """Mean height of a uniform nonsimple butterfly tree with 2^n nodes, with
    an absolute error below 2^n · 2^-52 for n <= 8 (exact for n <= 5).

    E h_n = sum_h P(h_n > h) needs only level n-1: bit 1 mirrors bit 0 and
    gives the same height law, so h_n = max(H1, R1+1+H2) in law. With
    F[h, c] = P(H1 <= h, R1 = c) and F2(h) = P(H2 <= h), P(h_n <= h) is
    sum_c F[h, c]·F2(h-c-1), for h = 0 .. 2^n - 2 (the largest height is
    2^n - 1). The bound allows 2^-52 per summed tail term; the tests check it
    against the exact rationals for n <= 8, where the largest error is
    5.5e-15 (n = 8).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    P = triple_law(n - 1)
    D = P.shape[0]
    F = _height_edge_cdf(P)
    F2 = np.concatenate([[0.0], F.sum(axis=1)])  # F2[x + 1] = P(H2 <= x)
    h = np.arange(2 * D - 1)
    below = (F[np.minimum(h, D - 1)] * F2[np.clip(h[:, None] - np.arange(D), 0, D)]).sum(axis=1)
    return float((1 - below).sum())


# libmpdec (CPython's decimal, 64-bit builds) holds 19 digits a word. It multiplies a product of
# at most _DIRECT_WORDS words by Karatsuba, and squares a longer one by number-theoretic transforms
# of 2^m words if the product fits, else of 1.5 * 2^m words, which cost ~1.6 times as much
_WORD_DIGITS = 19
_DIRECT_WORDS = 1024
# the cross terms of a tail of t of L counts cost ~t * L int products, a third of what the power
# of two saves at a 1.5% tail (n = 12); a tail of more than 1/_TAIL_SHARE of the counts is squared whole
_TAIL_SHARE = 32


def _square_poly(c: list[int], bits: int) -> list[int]:
    """Coefficients of (sum_v c[v] x^v)^2, each below 2^bits, by Kronecker
    substitution in decimal slots: pack the first k counts A into one Decimal
    in d-digit slots, 10^d > 2^bits, square it in a context where rounding
    raises, cut the product back into slots, and add the cross terms
    2 A B + B^2 of the last counts B in ints. k is len(c) unless the whole
    square would miss a power-of-two transform that A^2 fits, with a tail of
    at most 1/_TAIL_SHARE of the counts. A slot within int's str digit limit
    (0: none) is read by int; a wider one through Decimal, which has no such
    limit."""
    d = bits * 30103 // 100000 + 1  # 30103 / 10^5 >= log10(2)
    k = len(c)
    words = 2 * -(-k * d // _WORD_DIGITS)  # the whole square's words, at most
    if words >= 2 * _DIRECT_WORDS:  # A^2 still runs through a transform
        fit = min(k, (1 << (words.bit_length() - 2)) * _WORD_DIGITS // d)  # A's words: half the power of two at or below
        if _TAIL_SHARE * (k - fit) <= k:
            k = fit
    packed = decimal.Decimal("".join(str(decimal.Decimal(x)).zfill(d) for x in reversed(c[:k])))
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded])
    digits = str(exact.multiply(packed, packed)).zfill((2 * k - 1) * d)
    limit = sys.get_int_max_str_digits()
    cut = int if not limit or d <= limit else lambda slot: int(decimal.Decimal(slot))
    out = [cut(digits[i - d : i or None]) for i in range(0, -len(digits), -d)] + [0] * (2 * (len(c) - k))
    for i in range(k, len(c)):  # count i times every count before it, twice, and itself
        b, b2 = c[i], 2 * c[i]
        out[i : 2 * i] = [o + b2 * a for o, a in zip(out[i : 2 * i], c)]
        out[2 * i] += b * b
    return out


def _law_counts(n: int, extra) -> tuple[dict[int, int], int]:
    """Level-n law of a recursion whose fair bit picks X1 + X2 or a second
    combination; ``extra(c, total)`` gives the counts of that combination
    over values 0..len(c)-1 from the level's counts c (index = value)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = [0, 1]
    exp = 0
    for _ in range(n):
        new = _square_poly(counts, 2 * exp + 1)
        for v, w in enumerate(extra(counts, 1 << exp)):
            new[v] += w
        counts = new
        exp = 2 * exp + 1
    return {v: w for v, w in enumerate(counts) if w}, exp


def _max_counts(c: list[int], total: int) -> list[int]:
    """Counts of max(X1, X2) for iid X1, X2 with counts c: F(v)^2 - F(v-1)^2."""
    F = [0, *itertools.accumulate(c)]
    return [b * b - a * a for a, b in zip(F, F[1:])]


def lis_law_counts(n: int) -> tuple[dict[int, int], int]:
    """Exact level-n LIS law as (value -> weight, denominator exponent).

    One step maps iid copies (X1, X2) with a fair bit to X1 + X2 or
    max(X1, X2); level 0 is the constant 1.
    """
    return _law_counts(n, _max_counts)


def cycle_law_counts(n: int) -> tuple[dict[int, int], int]:
    """Exact level-n cycle law: one step maps (Y1, Y2) to Y1 + Y2 or Y1."""
    return _law_counts(n, lambda c, total: [total * w for w in c])
