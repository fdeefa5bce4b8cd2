"""Acceptance gate: one test per criterion, asserted at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion. Two sub-clauses are implemented exactly as stated and marked as
expected failures because they are mathematically unattainable; each carries
its analysis in the xfail reason and prints the observed numbers.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from butterfly_trees import cli
from butterfly_trees.bst import summary
from butterfly_trees.butterfly import class_indices, stats_from_subtrees
from butterfly_trees.exact import (
    LAMBDA,
    constants,
    exact_mean_height,
    nonsimple_mean_bounds,
    simple_height_counts,
    stirling1_row,
)
from butterfly_trees.gepp import nonsimple_matrices, uniformity_check
from butterfly_trees.sampling import RngState

from conftest import (
    all_nonsimple_words,
    all_simple_words,
    all_words,
    assemble_wreath,
    batch_summaries,
    block_decomposition,
    block_height,
    cycle_count,
    gepp_factorization,
    harmonic,
    lds,
    lis,
    ltr_maxima_len,
    naive_summary,
    nonsimple_pareto_fronts,
    nonzero_counts,
    simple_height_mean,
    simple_trees,
    triple_counts,
)

TABLE1 = {1023: 2, 512: 20, 258: 90, 134: 240, 78: 420, 62: 252}


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_01_height_count_table_exact():
    t0 = time.perf_counter()
    h, _, _ = batch_summaries(all_simple_words(10))
    counts = Counter(h.tolist())
    dt = time.perf_counter() - t0
    assert counts == TABLE1
    assert simple_height_counts(10) == TABLE1
    assert dt < 5.0
    report(f"criterion 01 (1024-tree height table, exact): PASS in {dt:.2f}s")


def test_criterion_02_simple_mean_height_exact():
    for n in range(1, 13):
        h, _, _ = simple_trees(n)
        mean = Fraction(int(h.sum()), 1 << n)
        assert mean == simple_height_mean(n) == 2 * LAMBDA**n - 2
    report("criterion 02 (enumeration mean = 2(3/2)^n - 2, n <= 12, exact): PASS")


def test_criterion_03_simple_edge_and_subsequence_laws():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for w in all_simple_words(n).tolist():
            s = summary(w)
            li, ld = lis(w), lds(w)
            assert s.h == s.l + s.r
            assert {li, ld} == {s.l + 1, s.r + 1}
            assert li * ld == 1 << n
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(f"criterion 03 (h = l + r and {{LIS,LDS}} = {{l+1,r+1}}, n <= 8, exact): PASS in {dt:.2f}s")


def test_criterion_04_nonsimple_exhaustive_oracle():
    t0 = time.perf_counter()
    n = 4
    words = all_nonsimple_words(n)
    total = 1 << ((1 << n) - 1)
    assert words.shape == (total, 16)

    direct = []
    cycles = []
    for w in words.tolist():
        direct.append(naive_summary(w))
        cycles.append(cycle_count(w))
    # n = 4 has no top bits: row i is the one subtree of class index i
    hlr = stats_from_subtrees(n, np.zeros((total, 0), dtype=np.int64), np.arange(total)[:, None])
    assert list(zip(*(a.tolist() for a in hlr))) == direct

    hist = Counter(direct)
    W, exp = triple_counts(n)
    assert dict(hist) == nonzero_counts(W)
    assert W.sum() == 1 << exp

    # cycles vs right edge: the laws over the full group coincide exactly
    assert Counter(cycles) == Counter(s[2] + 1 for s in direct)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(
        "criterion 04 (recursion = direct summary, joint law = histogram, "
        f"cycle law = right-edge law, all {total} elements, exact): PASS in {dt:.2f}s"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "per-element cycle_count == r + 1 is false on the group: the laws agree "
        "exactly (verified above) but e.g. word 3421 has 1 cycle and right edge 1; "
        "25322 of the 32768 depth-4 elements violate the pointwise identity"
    ),
)
def test_criterion_04b_cycles_equal_right_edge_pointwise():
    words = all_nonsimple_words(4)
    _, _, r = batch_summaries(words)
    bad = sum(cycle_count(tuple(int(x) for x in row)) != int(rr) + 1 for row, rr in zip(words, r))
    report(f"criterion 04b (pointwise cycles = r + 1): FAIL, {bad}/32768 violations (law-level form passes)")
    assert bad == 0


def test_criterion_05_bounds_and_constants():
    c = constants()
    assert round(c.beta, 6) == 0.913189
    assert round(c.d, 5) == 2.60958
    assert round(c.xi, 5) == 1.88320
    assert round(c.Cstar, 4) == 1.5601
    assert round(c.alpha, 5) == 0.58496
    assert abs(c.cstar - 4.31107) <= 1e-4

    lo10, up10 = nonsimple_mean_bounds(10)
    assert f"{lo10:.2f}" == "113.33" and f"{up10:.2f}" == "1313.53"

    for n in range(1, 5):
        mean = exact_mean_height(n)
        lo, up = nonsimple_mean_bounds(n)
        assert mean >= 2 * LAMBDA**n - 2  # exact rational comparison at the boundary
        assert float(mean) <= up + 1e-9
    assert exact_mean_height(2) == Fraction(5, 2)
    report("criterion 05 (exact means inside bounds; constants to stated decimals): PASS")


def test_criterion_06_nonsimple_height_monte_carlo():
    # the least height of a nonsimple tree of 1024 keys is exact (20), not read off a sample;
    # 62 is the least of a simple one
    least = min(h for h, _, _ in nonsimple_pareto_fronts(10)[-1])
    t0 = time.perf_counter()
    meta, cols = cli.fig8_data(n=10, trials=10_000, seed=1069)
    dt = time.perf_counter() - t0
    assert 113 <= meta["mean"] <= 126
    assert meta["min"] >= least
    assert sum(cols["count"]) == 10_000
    assert dt < 30.0
    report(
        f"criterion 06 (10000-trial height sample at 1024 nodes): PASS in {dt:.2f}s "
        f"(mean={meta['mean']:.2f} in [113,126], min={meta['min']} >= {least})"
    )


def test_criterion_07_record_law_exact():
    for n in range(1, 8):
        hist = Counter()
        total_records = 0
        for w in all_words(n):
            k = ltr_maxima_len(w)
            hist[k] += 1
            total_records += k
        row = stirling1_row(n)
        assert hist == {k: row[k] for k in range(1, n + 1) if row[k]}
        assert Fraction(total_records, math.factorial(n)) == harmonic(n)
    report("criterion 07 (record counts = Stirling-1 law with harmonic mean, n <= 7, exact): PASS")


def test_criterion_08_block_decomposition_oracle():
    import itertools

    checked = 0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for rho in all_words(m):
                for blocks in itertools.product(list(all_words(n)), repeat=m):
                    d = block_decomposition(rho, blocks)
                    assert block_height(d) == naive_summary(assemble_wreath(rho, blocks))[0]
                    checked += 1
    for i in range(1000):
        g = RngState(31415, i).generator()
        m = int(g.integers(1, 9))
        n = int(g.integers(1, 9))
        rho = (g.permutation(m) + 1).tolist()
        blocks = [(g.permutation(n) + 1).tolist() for _ in range(m)]
        d = block_decomposition(rho, blocks)
        assert block_height(d) == summary(assemble_wreath(rho, blocks)).h
    report(f"criterion 08 (block height = direct height, {checked} exhaustive + 1000 random, exact): PASS")


def test_criterion_09_single_wreath_height_shift():
    t0 = time.perf_counter()
    meta, cols = cli.theorem2_diff_data(n=10_000, m=2, trials=2000, seed=271828)
    dt = time.perf_counter() - t0
    d = cols["scaled_diff_mean"][0]
    assert 0.6 <= d <= 1.4
    report(
        f"criterion 09 (paired scaled height difference, n=10^4, m=2, 2000 trials): "
        f"PASS in {dt:.1f}s (diff={d:.4f} in [0.6,1.4])"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the standardized statistic has no mass below "
        "2/sqrt(n), so its KS distance to the half-normal is at least "
        "2*Phi(2/sqrt(400)) - 1 = 0.0797 > 0.05 for every sample size; "
        "the 0.05 target is first reachable near n = 1600"
    ),
)
def test_criterion_10_log_height_clt_at_stated_size():
    meta, cols = cli.clt_simple_data(n=400, samples=100_000, seed=1234)
    ks = cols["ks_distance"][0]
    report(f"criterion 10 (KS <= 0.05 at n=400): FAIL, ks={ks:.4f} >= structural floor 0.0797")
    assert ks <= 0.05


def test_criterion_10b_log_height_clt_convergence():
    # substantive content: the distance equals its discreteness floor and
    # falls through 0.05 as n grows; small n stays far away
    floors = {}
    observed = {}
    for n in (4, 400, 1600):
        _, cols = cli.clt_simple_data(n=n, samples=100_000, seed=1234)
        observed[n] = cols["ks_distance"][0]
        floors[n] = 2 * stats.norm.cdf(2 / math.sqrt(n)) - 1
    assert observed[4] > 0.1
    assert observed[400] > observed[1600]
    assert abs(observed[400] - floors[400]) < 0.005
    assert observed[1600] <= 0.05
    report(
        "criterion 10b (half-normal convergence of the log height): PASS "
        f"(ks(400)={observed[400]:.4f} at floor {floors[400]:.4f}; ks(1600)={observed[1600]:.4f} <= 0.05)"
    )


def test_criterion_11_gepp_provenance():
    t0 = time.perf_counter()
    g = RngState(7001).generator()
    mats = nonsimple_matrices(4, g.uniform(0, 2 * np.pi, size=(1000, 15)))
    max_err = 0.0
    for M in mats:
        word, L, U = gepp_factorization(M)
        assert class_indices(np.array([word]), "nonsimple")[0] >= 0
        P = np.zeros_like(M)
        for j, wj in enumerate(word):
            P[wj - 1, j] = 1.0
        max_err = max(max_err, float(np.abs(P @ M - L @ U).max()))
    assert max_err <= 1e-9

    counts2, _ = uniformity_check(2, 80_000, RngState(7002).generator(), family="nonsimple")
    _, p2, _ = cli._chi_square(counts2, np.full(8, 80_000 / 8))
    assert len(counts2) == 8 and p2 > 0.001
    counts3, _ = uniformity_check(3, 256_000, RngState(7003).generator(), family="nonsimple")
    _, p3, _ = cli._chi_square(counts3, np.full(128, 256_000 / 128))
    assert len(counts3) == 128 and p3 > 0.001
    dt = time.perf_counter() - t0
    report(
        f"criterion 11 (GEPP membership 1000/1000, PB-LU err {max_err:.1e} <= 1e-9, "
        f"uniformity p={p2:.3f}/{p3:.3f} > 0.001): PASS in {dt:.1f}s"
    )


def test_criterion_12_lattice_degrees_match_height_counts():
    for n in range(1, 13):
        _, cols = cli.lattice_degrees_data(n)
        assert dict(zip(cols["degree"], cols["count"])) == simple_height_counts(n)
        assert cols["height_count"] == cols["count"] and cols["equal"] == [1] * len(cols["count"])
    report("criterion 12 (comparability degrees = simple tree height counts, n <= 12, exact): PASS")
