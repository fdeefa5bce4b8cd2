import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from butterfly_trees.exact import (
    LAMBDA,
    _square_poly,
    bound_sequences,
    constants,
    cycle_law_counts,
    cycle_moment,
    devroye_constant,
    exact_mean_height,
    lis_law_counts,
    nonsimple_mean_bounds,
    simple_height_counts,
    simple_height_pmf,
    stirling1_pmf,
    stirling1_row,
    triple_law,
)
from butterfly_trees.sampling import RngState, nonsimple_butterfly_stats

from conftest import (
    all_nonsimple_words,
    all_words,
    batch_summaries,
    cycle_count,
    dict_law_levels,
    dict_triple_levels,
    edge_moments,
    fraction_mean_height,
    harmonic,
    lis,
    ltr_maxima_len,
    nonsimple_pareto_fronts,
    nonzero_counts,
    pareto_minimal,
    simple_height_mean,
    simple_trees,
    triple_counts,
)


def moment(W, exp: int, coord: int, power: int = 1) -> Fraction:
    """E X^power of one coordinate (0 = H, 1 = L, 2 = R) under the counts W / 2^exp."""
    marginal = W.sum(axis=tuple(a for a in range(3) if a != coord))
    return Fraction(sum(v**power * w for v, w in enumerate(marginal.tolist())), 1 << exp)


def test_stirling_values():
    assert stirling1_row(3) == (0, 2, 3, 1)
    for n in range(0, 12):
        assert stirling1_row(n)[n] == 1 and len(stirling1_row(n)) == n + 1
    assert sum(stirling1_row(4)) == 24
    with pytest.raises(ValueError):
        stirling1_row(-1)


def test_stirling_row_sums_are_factorials():
    for n in range(1, 31):
        assert sum(stirling1_row(n)) == math.factorial(n)
        assert stirling1_row(n)[0] == 0


def test_stirling_pmf():
    assert stirling1_pmf(3) == (Fraction(2, 6), Fraction(3, 6), Fraction(1, 6))
    assert stirling1_pmf(1) == (Fraction(1),)
    for n in range(1, 12):
        pmf = stirling1_pmf(n)
        assert sum(pmf) == 1
        mean = sum(Fraction(k) * p for k, p in zip(range(1, n + 1), pmf))
        assert mean == harmonic(n)
        second = sum(Fraction(k * k) * p for k, p in zip(range(1, n + 1), pmf))
        assert second - mean * mean == harmonic(n) - harmonic(n, 2)


def test_record_distribution_matches_pmf():
    for n in range(1, 8):
        hist = Counter(ltr_maxima_len(w) for w in all_words(n))
        fact = math.factorial(n)
        for k, p in zip(range(1, n + 1), stirling1_pmf(n)):
            assert Fraction(hist.get(k, 0), fact) == p


def test_harmonic():
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(0) == 0
    assert all(harmonic(n + 1) > harmonic(n) for n in range(20))


def test_simple_height_law():
    assert simple_height_counts(10) == {1023: 2, 512: 20, 258: 90, 134: 240, 78: 420, 62: 252}
    assert simple_height_counts(2) == {3: 2, 2: 2}
    for n in range(1, 16):
        counts = simple_height_counts(n)
        assert sum(counts.values()) == 1 << n
        pmf = simple_height_pmf(n)
        assert sum(pmf.values()) == 1
        assert sum(Fraction(h) * p for h, p in pmf.items()) == simple_height_mean(n)
    assert simple_height_pmf(10)[62] == Fraction(252, 1024)
    assert simple_height_pmf(1) == {1: Fraction(1)}
    assert simple_height_mean(10) == Fraction(58025, 512)
    assert float(simple_height_mean(10)) == 113.330078125


def test_simple_height_counts_match_enumeration():
    for n in range(1, 13):
        h, _, _ = simple_trees(n)
        values, freqs = np.unique(h, return_counts=True)
        assert {int(v): int(c) for v, c in zip(values, freqs)} == simple_height_counts(n)


def test_devroye_constant():
    g = lambda x: x * math.log(2 * math.e / x) - 1
    c = devroye_constant()
    assert abs(g(c)) <= 1e-12
    assert c == constants().cstar
    assert 4.31 < c < 4.32
    assert abs(c - 4.31107) <= 1e-4


def test_edge_moments():
    assert edge_moments(1) == (Fraction(1, 2), Fraction(1, 2))
    assert edge_moments(2) == (Fraction(5, 4), Fraction(5, 2))
    for n in range(1, 5):
        W, exp = triple_counts(n)
        m1, m2 = edge_moments(n)
        assert moment(W, exp, 1, 1) == m1 and moment(W, exp, 2, 1) == m1
        assert moment(W, exp, 1, 2) == m2 and moment(W, exp, 2, 2) == m2


def test_cycle_moments():
    assert cycle_moment(0) == 1
    assert cycle_moment(1) == 1
    assert cycle_moment(2) == Fraction(4, 5)
    s3 = (LAMBDA - 1) / (LAMBDA**3 - 1) * (3 * cycle_moment(1) * cycle_moment(2) * 2)
    assert cycle_moment(3) == s3 == Fraction(96, 95)
    with pytest.raises(ValueError):
        cycle_moment(-1)


def test_constants():
    c = constants()
    assert round(c.alpha, 5) == 0.58496
    assert round(c.beta, 6) == 0.913189
    assert round(c.xi, 5) == 1.88320
    assert round(c.Cstar, 4) == 1.5601
    assert round(c.d, 5) == 2.60958
    assert abs(c.cstar - 4.31107) <= 1e-4
    assert abs(2**c.alpha - 1.5) <= 1e-12
    assert abs(c.beta - math.log2(c.xi)) <= 1e-12
    assert abs(c.d * (c.xi - 1.5) - 1) <= 1e-12
    assert abs(c.xi - (1 + math.sqrt(2 * c.Cstar) / 2)) <= 1e-12


def test_bound_sequences():
    seqs = bound_sequences(60)
    assert seqs.a[0] == 0 and seqs.b[0] == 0
    assert seqs.a[1] == 1.0
    assert abs(seqs.b[1] - 25 / 12) <= 1e-14
    assert all(x >= 0 for x in seqs.a) and all(x >= 0 for x in seqs.b)
    assert all(a2 >= a1 for a1, a2 in zip(seqs.a, seqs.a[1:]))
    assert all(b2 >= b1 for b1, b2 in zip(seqs.b, seqs.b[1:]))
    Cstar = constants().Cstar
    # variance-vs-mean^2 domination; the first step is the known exception
    # (a_1 = 1 from the displayed recursion, where 25/12 > Cstar)
    assert seqs.b[1] > Cstar * seqs.a[1] ** 2
    for n in range(2, 61):
        assert seqs.b[n] <= Cstar * seqs.a[n] ** 2


def test_nonsimple_mean_bounds():
    lo, up = nonsimple_mean_bounds(10)
    assert f"{lo:.2f}" == "113.33"
    assert f"{up:.2f}" == "1313.53"
    c = constants()
    lo2, up2 = nonsimple_mean_bounds(2)
    assert up2 == pytest.approx(c.xi + 1.5, abs=1e-12)
    for n in range(0, 30):
        lo, up = nonsimple_mean_bounds(n)
        assert lo <= up


def test_triple_dist_base_and_mass():
    W0, exp0 = triple_counts(0)
    assert nonzero_counts(W0) == {(0, 0, 0): 1} and exp0 == 0
    W1, exp1 = triple_counts(1)
    assert nonzero_counts(W1) == {(1, 0, 1): 1, (1, 1, 0): 1} and exp1 == 1
    for n in range(1, 5):
        W, exp = triple_counts(n)
        assert W.shape == (1 << n,) * 3
        assert W.sum() == 1 << exp
        assert exp == (1 << n) - 1
        for (h, l, r) in nonzero_counts(W):
            assert h >= max(l, r)
    with pytest.raises(ValueError):
        triple_counts(-1)


def test_triple_dist_matches_enumeration():
    for n in range(1, 4):
        hist = Counter(zip(*(a.tolist() for a in batch_summaries(all_nonsimple_words(n)))))
        assert dict(hist) == nonzero_counts(triple_counts(n)[0])


def test_triple_dist_matches_dict_convolution():
    for n, oracle in enumerate(dict_triple_levels(5), start=1):
        W, _ = triple_counts(n)
        assert nonzero_counts(W) == oracle
        assert (W >= 0).all()


def test_pareto_fronts_are_the_minimal_triples_of_the_exact_law():
    fronts = nonsimple_pareto_fronts(10)
    for n, front in enumerate(fronts[:6], start=1):
        support = set(nonzero_counts(triple_counts(n)[0]))
        assert front == pareto_minimal(support)
        assert min(h for h, _, _ in front) == min(h for h, _, _ in support)
    assert [min(h for h, _, _ in front) for front in fronts] == [1, 2, 3, 5, 7, 9, 11, 14, 17, 20]


@pytest.mark.parametrize("n", [6, 7])
def test_triple_dist_past_int64(n):
    # level 6 is the first whose total 2^63 wraps int64; its counts are Python ints
    W, exp = triple_counts(n)
    assert exp == (1 << n) - 1
    assert W.sum() == 1 << exp
    assert (W >= 0).all()
    m1, m2 = edge_moments(n)
    assert moment(W, exp, 1, 1) == m1 and moment(W, exp, 1, 2) == m2
    assert (W.sum(axis=(0, 2)) == W.sum(axis=(0, 1))).all()
    # the oracle's mean from level n - 1 against its full level-n law
    assert fraction_mean_height(n) == moment(W, exp, 0)


def test_exact_mean_heights():
    assert exact_mean_height(1) == 1
    assert exact_mean_height(2) == Fraction(5, 2)
    assert exact_mean_height(3) == Fraction(19, 4)
    assert exact_mean_height(4) == Fraction(4203, 512)
    for n in range(1, 9):
        m = exact_mean_height(n)
        oracle = fraction_mean_height(n)
        assert type(m) is float
        assert abs(Fraction(m) - oracle) <= Fraction(2**n, 2**52)  # the stated error bound
        if n <= 5:
            W, exp = triple_counts(n)
            assert m == oracle == moment(W, exp, 0)
        lo, up = nonsimple_mean_bounds(n)
        assert m >= 2 * LAMBDA**n - 2
        assert m <= up + 1e-9
    with pytest.raises(ValueError):
        exact_mean_height(0)


@pytest.mark.parametrize(
    "n,mean_repr", [(6, "21.35535695519614"), (7, "33.26661748143206"), (8, "51.18265204225739")]
)
def test_exact_mean_height_against_sampled_heights(n, mean_repr):
    m = fraction_mean_height(n)
    assert repr(float(m)) == mean_repr
    # independent of the convolution: heights from sampled shape bits
    h, _, _ = nonsimple_butterfly_stats(n, 4000, RngState(2024, n).generator())
    sem = h.std(ddof=1) / math.sqrt(len(h))
    assert abs(h.mean() - float(m)) <= 5 * sem
    lo, up = nonsimple_mean_bounds(n)
    assert lo <= float(m) <= up


def test_triple_law_is_the_oracle_counts_within_its_bound():
    for n in range(8):
        P = triple_law(n)
        W, exp = triple_counts(n)
        assert P.dtype == np.float64 and P.shape == W.shape
        if n <= 6:
            # exact: scaling by 2^exp is exact, and float == int compares exactly
            assert (P * 2.0**exp == W).all()
        else:
            assert np.abs(P - W.astype(float) / 2.0**exp).max() <= 2.0**-52
    with pytest.raises(ValueError):
        triple_law(-1)


def schoolbook_square(c: list[int]) -> list[int]:
    out = [0] * (2 * len(c) - 1)
    for i, a in enumerate(c):
        for j, b in enumerate(c):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize(
    "c,bits",
    [
        ([0], 1),
        ([1], 1),
        ([math.isqrt(2**40 - 1)], 40),  # the square fills its slot
        ([0, 0], 3),
        ([3, 0], 5),
        ([0, 2**20 - 1], 40),
        ([1, 2, 3], 5),
        ([0, 7, 0], 6),
        ([2**19, 2**19, 2**19], 41),
    ],
)
def test_square_poly_short(c, bits):
    assert _square_poly(c, bits) == schoolbook_square(c)


def test_square_poly_matches_schoolbook():
    rng = random.Random(5)
    for _ in range(200):
        length, bits = rng.randint(1, 64), rng.randint(8, 400)
        # coefficients below 2^k with length * 4^k <= 2^bits, so each square coefficient fits its slot
        k = (bits - length.bit_length()) // 2
        c = [rng.getrandbits(k) for _ in range(length)]
        assert _square_poly(c, bits) == schoolbook_square(c)
    # slots of 4516 digits, past the 4300-digit limit of int <-> str
    c = [rng.getrandbits(7490) for _ in range(3)]
    assert _square_poly(c, 15000) == schoolbook_square(c)


@pytest.mark.parametrize("bits,digits", [(2126, 640), (2127, 641)])
def test_square_poly_at_the_int_digit_limit(bits, digits):
    # a slot of at most the limit's digits is cut by int, a wider one through Decimal
    assert bits * 30103 // 100000 + 1 == digits
    rng = random.Random(bits)
    c = [rng.getrandbits((bits - 2) // 2) for _ in range(3)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _square_poly(c, bits) == schoolbook_square(c)
    finally:
        sys.set_int_max_str_digits(old)


def square_words(length: int, bits: int) -> int:
    """libmpdec words, 19 digits each, of the whole square of ``length`` counts in slots for ``bits``."""
    return 2 * -(-length * (bits * 30103 // 100000 + 1) // 19)


@pytest.mark.parametrize(
    "length,bits,words",
    [
        (1023, 60, 2046),  # 19-digit slots, one word each: just below 2^11 words
        (1024, 60, 2048),  # at it
        (1025, 60, 2050),  # just above: the first 1024 counts are packed, the last one is the tail
        (2049, 60, 4098),
        (511, 123, 2044),  # 38-digit slots, two words each
        (512, 123, 2048),
        (513, 123, 2052),
        (513, 1023, 16632),  # a law level's shape, n = 10: 505 counts packed, 8 in the tail
    ],
)
def test_square_poly_around_a_power_of_two_transform(length, bits, words):
    # random counts as large as the slots allow, the tail's too, so a split must be exact for any counts
    assert square_words(length, bits) == words
    rng = random.Random(length * bits)
    k = (bits - length.bit_length()) // 2
    c = [rng.getrandbits(k) for _ in range(length)]
    assert _square_poly(c, bits) == schoolbook_square(c)
    # a tail holding the largest counts, after small ones
    c = [rng.getrandbits(k // 4) for _ in range(length - 16)] + [(1 << k) - 1 - rng.getrandbits(8) for _ in range(16)]
    assert _square_poly(c, bits) == schoolbook_square(c)


@pytest.mark.parametrize("length", [1, 2])
def test_square_poly_of_one_and_two_transform_sized_counts(length):
    # a product past 2048 words from one or two counts, whose slots are past int's 4300-digit limit
    bits = 70_000
    assert square_words(length, bits) >= 2048
    rng = random.Random(length)
    c = [rng.getrandbits((bits - 2) // 2) for _ in range(length)]
    assert _square_poly(c, bits) == schoolbook_square(c)


LAW_COUNTS_SHA256 = {
    ("cycle", 11): "19b622e44a0fdfa7b55400ed5d716a3f345b4ca3c5314564d4613fa339ff5017",
    ("lis", 11): "f035d1bc6ca72748630321e350cd658274cd8806b88bfd5cbfa4122624c20dbb",
    ("cycle", 12): "8c68043cf27261db567ddd6fe6915c1ffe58c9aedc7ec274f25f82408989d20e",
    ("lis", 12): "fbcea0f9cf7b89ff793b9576224c20cd3bdb4a3389a1425b8b1de853d9a18fc1",
}


@pytest.mark.parametrize("law,n", list(LAW_COUNTS_SHA256), ids=lambda v: str(v))
def test_law_counts_past_the_dict_oracle_are_pinned(law, n):
    # recorded from the unsplit Kronecker square, which matched the dict convolution through
    # n = 10; the oracle takes too long here, and the split square of these levels must not move them
    counts, denom_exp = (lis_law_counts if law == "lis" else cycle_law_counts)(n)
    assert denom_exp == (1 << n) - 1
    assert hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest() == LAW_COUNTS_SHA256[law, n]


@pytest.mark.parametrize("law,law_counts", [("lis", lis_law_counts), ("cycle", cycle_law_counts)])
def test_law_counts_match_dict_convolution(law, law_counts):
    for n, oracle in enumerate(dict_law_levels(10, law)):
        counts, denom_exp = law_counts(n)
        assert counts == oracle
        assert denom_exp == (1 << n) - 1
        assert all(w > 0 for w in counts.values())


def test_law_counts_match_butterfly_statistics():
    for n in range(1, 4):
        words = all_nonsimple_words(n).tolist()
        lc, le = lis_law_counts(n)
        cc, ce = cycle_law_counts(n)
        assert Counter(lis(w) for w in words) == lc
        assert Counter(cycle_count(w) for w in words) == cc
        assert le == ce == (1 << n) - 1
    # cycle law mean matches the right-edge mean + 1
    cc, ce = cycle_law_counts(4)
    mean = Fraction(sum(v * w for v, w in cc.items()), 1 << ce)
    assert mean == edge_moments(4)[0] + 1
