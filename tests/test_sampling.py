import itertools
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from butterfly_trees.bst import batch_summaries
from butterfly_trees.butterfly import all_nonsimple_words, class_indices
from butterfly_trees.exact import cycle_law_counts, lis_law_counts
from butterfly_trees.sampling import (
    RngState,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    nonsimple_butterfly_words,
    uniform_bst_stats,
    wreath_heights,
)

from conftest import (
    all_words,
    cycle_count,
    lis,
    naive_summary,
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
        lambda: nonsimple_butterfly_words(3, 5, r),
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


@pytest.mark.parametrize("n", [*range(1, 8), 9])
def test_uniform_bst_stats_match_all_of_s_n(n):
    # the joint (h, l, r) law over every insertion order, against the split
    # draws; N <= 7 read the table at the root, N = 9 splits once above it,
    # its 9! orders summarized in one batch
    if n <= 7:
        exact = Counter(naive_summary(w) for w in all_words(n))
    else:
        exact = triples(*batch_summaries(np.array(list(all_words(n)))))
    trials = 40_000
    obs = triples(*uniform_bst_stats(n, trials, RngState(11, n)))
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        total = sum(exact.values())
        assert pooled_chisquare_pvalue(obs, {t: trials * c / total for t, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n", [8, 9, 30])
def test_uniform_bst_stats_match_word_trees(n):
    # two samples of the joint (h, l, r) law, either side of the table cutoff
    trials = 40_000
    split = triples(*uniform_bst_stats(n, trials, RngState(12, n)))
    words = triples(*batch_summaries(uniform_words(n, trials, RngState(13, n).generator())))
    assert two_sample_pvalue(split, words) > P_FLOOR


def test_uniform_bst_height_law_at_2000():
    # the size recursion of the height law, one FFT per level, at a size with
    # many levels of root splits above the table
    n, trials, K = 2000, 10_000, 80
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
    words = nonsimple_butterfly_words(2, trials, RngState(707))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert pooled_chisquare_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR

    assert (class_indices(nonsimple_butterfly_words(4, 50, RngState(2)), "nonsimple") >= 0).all()
    n1 = Counter(map(tuple, nonsimple_butterfly_words(1, 2000, RngState(3)).tolist()))
    assert set(n1) == {(1, 2), (2, 1)}


def test_nonsimple_butterfly_stats_are_the_trees_of_the_sampled_words():
    for n in range(1, 11):
        state = RngState(31, n)
        stats_hlr = nonsimple_butterfly_stats(n, 40, state)
        trees_hlr = batch_summaries(nonsimple_butterfly_words(n, 40, state))
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
