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
    uniform_words,
    wreath_words,
)

from conftest import cycle_count, lis, uniform_words_copying, wreath_words_stacked

P_FLOOR = 0.001


def chi2_uniform_pvalue(counts, classes, trials):
    obs = [counts.get(c, 0) for c in classes]
    return stats.chisquare(obs, f_exp=[trials / len(classes)] * len(classes)).pvalue


def test_determinism():
    r = RngState(987, 3)
    for draw in (
        lambda: uniform_words(8, 5, r),
        lambda: wreath_words(3, 2, 5, r),
        lambda: nonsimple_butterfly_words(3, 5, r),
        lambda: nonsimple_butterfly_stats(3, 5, r),
        lambda: lis_law_samples(5, 5, r),
        lambda: cycle_law_samples(5, 5, r),
    ):
        assert np.array_equal(draw(), draw())


def test_substreams_differ():
    assert not np.array_equal(uniform_words(20, 1, RngState(987, 1)), uniform_words(20, 1, RngState(987, 2)))


def test_uniform_permutation_basics():
    assert uniform_words(1, 3, RngState(0)).tolist() == [[1], [1], [1]]
    words = uniform_words(50, 20, RngState(0))
    assert words.dtype == np.int64 and (np.sort(words, axis=1) == np.arange(1, 51)).all()


def test_uniform_permutation_chi_square():
    trials = 60_000
    words = uniform_words(3, trials, RngState(101))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


def test_sample_wreath_uniform_over_group():
    trials = 80_000
    words = wreath_words(2, 2, trials, RngState(202))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert set(counts) <= set(classes)
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


@pytest.mark.parametrize("n,m,count", [(10000, 2, 250), (7, 13, 50), (3, 5, 1), (50, 50, 20)])
def test_in_place_samplers_match_copying_forms(n, m, count):
    # the in-place shuffle and the per-block writes must draw the same words as the copying forms
    for state in (RngState(0), RngState(55, 1)):
        assert np.array_equal(uniform_words(n * m, count, state), uniform_words_copying(n * m, count, state.generator()))
        assert np.array_equal(wreath_words(n, m, count, state), wreath_words_stacked(n, m, count, state.generator()))
    g, oracle_g = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(wreath_words(n, m, count, g), wreath_words_stacked(n, m, count, oracle_g))
    assert np.array_equal(uniform_words(n, count, g), uniform_words_copying(n, count, oracle_g))


def test_sample_wreath_trivial_blocks_is_uniform():
    trials = 30_000
    counts = Counter(map(tuple, wreath_words(1, 3, trials, RngState(404)).tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


def test_butterfly_samplers():
    trials = 80_000
    words = nonsimple_butterfly_words(2, trials, RngState(707))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR

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
