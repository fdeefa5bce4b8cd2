import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from butterfly_trees.bst import batch_summaries
from butterfly_trees.butterfly import all_nonsimple_words, class_indices
from butterfly_trees.exact import cycle_law_counts, lis_law_counts
from butterfly_trees.sampling import (
    _COLS,
    _ORDERS,
    _SMALL,
    RngState,
    _alias_table,
    _law_counts,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    uniform_bst_stats,
    wreath_heights,
)

from conftest import (
    all_words,
    cycle_count,
    lis,
    naive_summary,
    nonsimple_butterfly_words,
    uniform_height_cdf,
    uniform_words,
    wreath_height_counts,
    wreath_words,
)

P_FLOOR = 0.001


def pooled_chisquare_pvalue(observed: dict, expected: dict) -> float:
    """Chi-square p-value of observed counts against expected ones over the union
    of their keys, the cells expecting fewer than 5 pooled into one."""
    keys = sorted(set(observed) | set(expected))
    obs = np.array([observed.get(k, 0) for k in keys], dtype=float)
    exp = np.array([expected.get(k, 0.0) for k in keys])
    rare = exp < 5
    obs = np.append(obs[~rare], obs[rare].sum())
    exp = np.append(exp[~rare], exp[rare].sum())
    if obs[-1] == exp[-1] == 0:  # nothing to pool; a draw where none is expected still fails
        obs, exp = obs[:-1], exp[:-1]
    return stats.chisquare(obs, f_exp=exp * obs.sum() / exp.sum()).pvalue


def two_sample_pvalue(a: Counter, b: Counter) -> float:
    """Chi-square p-value that two samples share one law, the cells holding
    fewer than 10 draws of both together pooled into one."""
    cells = sorted(set(a) | set(b))
    table = np.array([[a.get(c, 0) for c in cells], [b.get(c, 0) for c in cells]])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


def triples(h, l, r) -> Counter:
    return Counter(zip(h.tolist(), l.tolist(), r.tolist()))


def test_determinism():
    r = RngState(987, 3)
    for draw in (
        lambda: uniform_bst_stats(30, 5, r),
        lambda: uniform_bst_stats(5, 5, r),
        lambda: wreath_heights(3, 2, 5, r),
        lambda: wreath_heights(40, 30, 5, r),
        lambda: nonsimple_butterfly_stats(3, 5, r),
        lambda: lis_law_samples(5, 5, r),
        lambda: cycle_law_samples(5, 5, r),
    ):
        assert np.array_equal(draw(), draw())


def test_substreams_differ():
    a = uniform_bst_stats(2000, 20, RngState(987, 1))[0]
    b = uniform_bst_stats(2000, 20, RngState(987, 2))[0]
    assert not np.array_equal(a, b)


def test_split_samplers_edges():
    for a in uniform_bst_stats(1, 3, RngState(0)):
        assert a.dtype == np.int64 and a.tolist() == [0, 0, 0]
    assert wreath_heights(1, 1, 3, RngState(0)).tolist() == [0, 0, 0]
    assert [a.size for a in uniform_bst_stats(50, 0, RngState(0))] == [0, 0, 0]
    h, l, r = uniform_bst_stats(50, 200, RngState(0))
    assert ((h >= 5) & (h <= 49) & (l <= h) & (r <= h)).all()
    for bad in (lambda: uniform_bst_stats(0, 1, RngState(0)), lambda: wreath_heights(2, 0, 1, RngState(0))):
        with pytest.raises(ValueError):
            bad()


def enumerated_triples(n: int) -> Counter:
    """(h, l, r) counts over all n! insertion orders: the literal insertion for
    n <= 7, one batch_summaries call over all of them beyond."""
    if n <= 7:
        return Counter(naive_summary(w) for w in all_words(n))
    return triples(*batch_summaries(np.array(list(all_words(n)))))


def law_triples(s: int) -> Counter:
    """The nonzero entries of the tabulated law of s keys, keyed (h, l, r)."""
    T = _law_counts()[s]
    return Counter({(h - 1, l - 1, r - 1): int(T[h, l, r]) for h, l, r in zip(*np.nonzero(T))})


@pytest.mark.parametrize("s", range(1, 10))
def test_law_counts_match_every_insertion_order(s):
    assert law_triples(s) == enumerated_triples(s)


def test_law_counts_height_marginal_matches_size_recursion():
    # s! in all, and the height law of the FFT size recursion, which shares no step with the table's
    T = _law_counts()
    assert T.shape == (_SMALL + 1,) * 4 and T[0].sum() == 1
    for s in range(1, _SMALL + 1):
        assert int(T[s].sum()) == math.factorial(s)
        cdf = np.cumsum(T[s].sum(axis=(1, 2))[1 : s + 1]) / math.factorial(s)
        np.testing.assert_allclose(cdf, uniform_height_cdf(s, s - 1), rtol=0, atol=1e-12)


def test_alias_columns_rebuild_the_law_exactly():
    # column c of size s gives thr to its primary and the rest of its capacity
    # to its alias; summed in Python ints, that is count * 20!/s! for every triple
    thr, codes = _alias_table()
    cap = _ORDERS // _COLS
    assert _ORDERS % _COLS == 0 and _ORDERS < 2**63
    assert not thr.flags.writeable and not codes.flags.writeable
    for s in range(1, _SMALL + 1):
        got = Counter()
        for c in range(_COLS):
            i = s * _COLS + c
            assert 0 <= thr[i] <= cap
            got[int(codes[2 * i])] += int(thr[i])
            got[int(codes[2 * i + 1])] += cap - int(thr[i])
        want = {h | l << 8 | r << 16: c * (_ORDERS // math.factorial(s)) for (h, l, r), c in law_triples(s).items()}
        assert +got == want


@pytest.mark.parametrize("n", [*range(1, 8), 9])
def test_uniform_bst_stats_match_all_of_s_n(n):
    # the joint (h, l, r) law over every insertion order, against the split
    # draws, which take every N <= 20 whole from the alias table at the root
    exact = enumerated_triples(n)
    trials = 40_000
    obs = triples(*uniform_bst_stats(n, trials, RngState(11, n)))
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        total = sum(exact.values())
        assert pooled_chisquare_pvalue(obs, {t: trials * c / total for t, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n", [20, 21, 30])
def test_uniform_bst_stats_match_word_trees(n):
    # two samples of the joint (h, l, r) law, either side of the alias-table cutoff
    trials = 40_000
    split = triples(*uniform_bst_stats(n, trials, RngState(12, n)))
    words = triples(*batch_summaries(uniform_words(n, trials, RngState(13, n).generator())))
    assert two_sample_pvalue(split, words) > P_FLOOR


@pytest.mark.parametrize("n", [21, 40, 2000])
def test_uniform_bst_height_law(n):
    # the size recursion of the height law, one FFT per level, at sizes that
    # split at the root above the alias table: once, a few times, many levels
    trials, K = 10_000, min(n - 1, 80)
    cdf = uniform_height_cdf(n, K)
    pmf = np.diff(cdf, prepend=0.0)
    h = uniform_bst_stats(n, trials, RngState(14))[0]
    assert h.max() <= K
    obs = Counter(h.tolist())
    assert pooled_chisquare_pvalue(obs, {k: trials * p for k, p in enumerate(pmf)}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_wreath_heights_match_the_group(n, m):
    exact = wreath_height_counts(n, m)
    total = sum(exact.values())
    trials = 30_000
    obs = Counter(wreath_heights(n, m, trials, RngState(15, 10 * n + m)).tolist())
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        assert pooled_chisquare_pvalue(obs, {k: trials * c / total for k, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(9, 3), (30, 4)])
def test_wreath_heights_match_word_trees(n, m):
    # blocks deep enough that a block's own (h, l, r) must hang together
    trials = 40_000
    split = Counter(wreath_heights(n, m, trials, RngState(16, n)).tolist())
    words = Counter(batch_summaries(wreath_words(n, m, trials, RngState(17, n).generator()))[0].tolist())
    assert two_sample_pvalue(split, words) > P_FLOOR


def test_uniform_permutation_basics():
    g = RngState(0).generator()
    assert uniform_words(1, 3, g).tolist() == [[1], [1], [1]]
    words = uniform_words(50, 20, g)
    assert words.dtype == np.int64 and (np.sort(words, axis=1) == np.arange(1, 51)).all()


def test_uniform_permutation_chi_square():
    trials = 60_000
    words = uniform_words(3, trials, RngState(101).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert pooled_chisquare_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_uniform_over_group():
    trials = 80_000
    words = wreath_words(2, 2, trials, RngState(202).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert set(counts) <= set(classes)
    assert pooled_chisquare_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_trivial_blocks_is_uniform():
    trials = 30_000
    counts = Counter(map(tuple, wreath_words(1, 3, trials, RngState(404).generator()).tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert pooled_chisquare_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_butterfly_samplers():
    trials = 80_000
    words = nonsimple_butterfly_words(2, trials, RngState(707).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert pooled_chisquare_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR

    assert (class_indices(nonsimple_butterfly_words(4, 50, RngState(2).generator()), "nonsimple") >= 0).all()
    n1 = Counter(map(tuple, nonsimple_butterfly_words(1, 2000, RngState(3).generator()).tolist()))
    assert set(n1) == {(1, 2), (2, 1)}


def test_nonsimple_butterfly_stats_are_the_trees_of_the_sampled_words():
    for n in range(1, 11):
        state = RngState(31, n)
        stats_hlr = nonsimple_butterfly_stats(n, 40, state)
        trees_hlr = batch_summaries(nonsimple_butterfly_words(n, 40, state.generator()))
        for a, b in zip(stats_hlr, trees_hlr):
            np.testing.assert_array_equal(a, b)


def test_law_sampler_base_cases():
    assert lis_law_samples(0, 3, RngState(0)).tolist() == [1, 1, 1]
    assert cycle_law_samples(0, 3, RngState(0)).tolist() == [1, 1, 1]
    x1 = Counter(int(v) for v in lis_law_samples(1, 4000, RngState(9)))
    y1 = Counter(int(v) for v in cycle_law_samples(1, 4000, RngState(10)))
    assert set(x1) == {1, 2} and set(y1) == {1, 2}
    with pytest.raises(ValueError):
        lis_law_samples(-1, 1, RngState(0))


def test_lis_law_matches_enumeration():
    # level-3 sampler against the exact LIS histogram of the 128 group elements
    exact_hist = Counter(lis(w) for w in all_nonsimple_words(3).tolist())
    counts, exp = lis_law_counts(3)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in lis_law_samples(3, trials, RngState(808)))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR


def test_cycle_law_matches_enumeration():
    exact_hist = Counter(cycle_count(w) for w in all_nonsimple_words(4).tolist())
    counts, exp = cycle_law_counts(4)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in cycle_law_samples(4, trials, RngState(909)))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR
