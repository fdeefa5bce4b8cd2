import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from butterfly_trees import butterfly, cli, sampling
from butterfly_trees.butterfly import class_indices, shape_indices, stats_from_subtrees
from butterfly_trees.exact import cycle_law_counts, lis_law_counts
from butterfly_trees.sampling import (
    _COLS,
    _ORDERS,
    _SMALL,
    RngState,
    _alias_table,
    _law_counts,
    _root_ranks,
    _words,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    uniform_bst_stats,
    wreath_heights,
)

from conftest import (
    all_nonsimple_words,
    all_words,
    batch_summaries,
    cycle_count,
    lis,
    naive_summary,
    nonsimple_butterfly_words,
    nonsimple_subtrees,
    subtree_shape_bits,
    uniform_height_cdf,
    uniform_words,
    wreath_height_counts,
    words_from_shape_bits,
    wreath_words,
)

P_FLOOR = 0.001


def chi_square_pvalue(observed: dict, expected: dict) -> float:
    """p-value of the package's pooled chi-square (``cli._chi_square``) of
    observed counts against expected ones, the cells in key order."""
    keys = sorted(set(observed) | set(expected))
    return cli._chi_square([observed.get(k, 0) for k in keys], [expected.get(k, 0.0) for k in keys])[1]


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
        lambda: uniform_bst_stats(30, 5, r.generator()),
        lambda: uniform_bst_stats(5, 5, r.generator()),
        lambda: wreath_heights(3, 2, 5, r.generator()),
        lambda: wreath_heights(40, 30, 5, r.generator()),
        lambda: nonsimple_butterfly_stats(3, 5, r.generator()),
        lambda: lis_law_samples(5, 5, r.generator()),
        lambda: cycle_law_samples(5, 5, r.generator()),
    ):
        assert np.array_equal(draw(), draw())


def test_substreams_differ():
    a = uniform_bst_stats(2000, 20, RngState(987, 1).generator())[0]
    b = uniform_bst_stats(2000, 20, RngState(987, 2).generator())[0]
    assert not np.array_equal(a, b)


def test_split_samplers_edges():
    for a in uniform_bst_stats(1, 3, RngState(0).generator()):
        assert a.dtype == np.int64 and a.tolist() == [0, 0, 0]
    assert wreath_heights(1, 1, 3, RngState(0).generator()).tolist() == [0, 0, 0]
    for n in (20, 21, 50):  # a first level all small, all large
        assert [a.size for a in uniform_bst_stats(n, 0, RngState(0).generator())] == [0, 0, 0]
    h, l, r = uniform_bst_stats(50, 200, RngState(0).generator())
    assert ((h >= 5) & (h <= 49) & (l <= h) & (r <= h)).all()
    # a live interval's size is its low 30 bits: 2^30 keys would run into the _LEFT bit
    for bad in (
        lambda g: uniform_bst_stats(0, 1, g),
        lambda g: wreath_heights(2, 0, 1, g),
        lambda g: uniform_bst_stats(2**30, 1, g),
        lambda g: uniform_bst_stats(2**30, 1, g, edges=False),
        lambda g: wreath_heights(2**30, 2, 1, g),
        lambda g: wreath_heights(2, 2**30, 1, g),
    ):
        with pytest.raises(ValueError, match="must be in 1..1073741823"):
            bad(RngState(0).generator())


def assert_ranks_are_numpys(size, g, reference):
    """_root_ranks(size, g) gives reference.integers(0, size)'s values and leaves g in its state."""
    got, want = _root_ranks(size, g), reference.integers(0, size)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    np.testing.assert_equal(g.bit_generator.state, reference.bit_generator.state)  # MT19937's holds an array


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3), st.lists(st.integers(2, 2**30), max_size=41))
def test_root_ranks_are_numpys_integers(seed, before, sizes):
    # any number of draws before, so a half is held on entry or not, and any sizes and length
    g, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (g, reference):
        gen.integers(0, np.full(before, 7))
    assert_ranks_are_numpys(np.array(sizes, dtype=np.int64), g, reference)
    assert g.integers(0, 2**62, size=3).tolist() == reference.integers(0, 2**62, size=3).tolist()


@pytest.mark.parametrize("held", [False, True], ids=["none-held", "half-held"])
@pytest.mark.parametrize("length", [0, 1, 2, 37, 38, 4000], ids=lambda n: f"len{n}")
@pytest.mark.parametrize("top", [21, 20_000, 2**30], ids=lambda s: f"top{s}")
def test_root_ranks_cases(held, length, top):
    # odd and even lengths, an empty array, a half held on entry (after an odd-length draw)
    # and the largest size, 2^30
    sizes = np.random.default_rng(length).integers(2, top, size=length, endpoint=True)
    g, reference = np.random.default_rng(41), np.random.default_rng(41)
    if held:
        for gen in (g, reference):
            gen.integers(0, [9, 9, 9])
        assert g.bit_generator.state["has_uint32"] == 1
    assert_ranks_are_numpys(sizes, g, reference)


def test_root_ranks_fall_back_to_numpy_on_a_rejection():
    # 2^32 mod 3 * 2^28 is 2^28, so one word in 16 is rejected; numpy then draws more words
    # than ranks, which this checks happened, so that the fallback ran
    size = np.full(64, 3 << 28, dtype=np.int64)
    g, reference, words = (np.random.default_rng(43) for _ in range(3))
    assert_ranks_are_numpys(size, g, reference)
    words.integers(0, 2**32, size=size.size, dtype=np.uint32)
    assert words.bit_generator.state != g.bit_generator.state


def test_root_ranks_of_another_bit_generator_are_numpys():
    size = np.arange(2, 300, dtype=np.int64)
    assert_ranks_are_numpys(size, np.random.Generator(np.random.MT19937(0)), np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("n", [3, 21, 41, 20_000])
def test_heights_alone_are_the_stats_heights(n):
    # edges=False skips the edge work and nothing else: the same heights, the same state after
    g, reference = RngState(26, n).generator(), RngState(26, n).generator()
    h, l, r = uniform_bst_stats(n, 40, g, edges=False)
    assert l is None and r is None
    assert h.tobytes() == uniform_bst_stats(n, 40, reference)[0].tobytes()
    assert g.bit_generator.state == reference.bit_generator.state


# sha256 of the (h, l, r) bytes and of the heights, recorded when the level loop still
# partitioned one array of intervals: a first level all small (n <= 20) or all large, and
# later levels with both
SPLIT_DIGESTS = {
    (1, 7): "e3c2af35d1dfc500e16f826a071cc311bf55003a3de77de7ea3376c6b6fa2857",
    (20, 50): "2247a02dc0014caa2485f625b275a91329f993a8dba24a8029682c7bbb523823",
    (21, 50): "29f311eb871dc967e7b4d08ebe02c88001d64e5607b21a73084ec99635b1b4f5",
    (22, 50): "935264cada8be248364e63e5723fc1196120d618226e728b5d51dbb601311259",
    (41, 50): "e43287ecc9bf248d9ef346f8a7a964b777a6690b2d27429463ecdf0e905235b1",
    (20000, 12): "3afd2d160b1cd24afce88d32cc8ce2ac6fa2f768d04c43fcbd16a7411c323274",
}
WREATH_DIGESTS = {
    (3, 10**4, 3): "e5c12039fb24ba01398865a38430746edf45e5e8b7717983c70c7d4c570fcf23",
    (10**4, 2, 5): "a5500d46f8926d36a7cf08dda76a968afe32cf1cd3e557ffb56a53c5f81d0454",
}

# sha256 of the generator's state after each of those calls, as state_digest gives it,
# recorded before the live interval packed its edge bits above its size: a change that
# keeps the outputs but reads a different number of words fails here
SPLIT_STATES = {
    (1, 7): "18278238dc80bacaa6f1fca61f96c0b63d220aaec0c5b88372a4f5e8e68c3eff",
    (20, 50): "a25b5898c4ef4bef955ba5372faa0e4c6c1530e8f598d826183484f64d136633",
    (21, 50): "debbe2b8f861392a3a9380f21d24c81500aa30a6ad9c0ca3ce7e06788537fe85",
    (22, 50): "187fd68ee4469b65a0462454462ded6706f286f0f17c3ab22ee488ac8a0d2ed9",
    (41, 50): "09a1f71e91b2b79774868380409ad87ce2186f0e80f1e3da229f9ee098127f46",
    (20000, 12): "79b590552065cb3fde285011629bf87f1d711641dc1dd86ae51955f3abfb9f08",
}
WREATH_STATES = {
    (3, 10**4, 3): "35baa73a929ef4df06856d228e06e4f554d7e0b4f609cb75c98d356369416001",
    (10**4, 2, 5): "2e314b0148213e6a6c128bc0409760ba269a7e190208efddb47b9d3ee3d2f834",
}


def state_digest(g: np.random.Generator) -> str:
    """sha256 of ``g.bit_generator.state`` as JSON with sorted keys, its ints written exactly."""
    return hashlib.sha256(json.dumps(g.bit_generator.state, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n,count", sorted(SPLIT_DIGESTS))
def test_uniform_bst_stats_draw_order_is_pinned(n, count):
    g = RngState(23, n).generator()
    hlr = np.stack(uniform_bst_stats(n, count, g))
    assert hashlib.sha256(hlr.tobytes()).hexdigest() == SPLIT_DIGESTS[n, count]
    assert state_digest(g) == SPLIT_STATES[n, count]


@pytest.mark.parametrize("n,m,count", sorted(WREATH_DIGESTS))
def test_wreath_heights_draw_order_is_pinned(n, m, count):
    g = RngState(24, m).generator()
    h = wreath_heights(n, m, count, g)
    assert hashlib.sha256(h.tobytes()).hexdigest() == WREATH_DIGESTS[n, m, count]
    assert state_digest(g) == WREATH_STATES[n, m, count]


@pytest.mark.parametrize(
    "n,m,bound",
    [
        # theorem2's chunk: 2.93 MiB measured, 3.15 MiB while the level loop kept a tree array
        # beside its intervals, 5.26 MB while each level kept its arrays until the next
        # level's replaced them
        (10**4, 2, 3.2 * 2**20),
        # README's largest explore chunk: 81.7 MiB measured, the external tree's arrays, with or
        # without a tree array in the level loop; 174.0 MB while a root of at most 20 keys went
        # through the level loop's (h, l | r << 32) sums
        (3, 10**4, 100 * 2**20),
    ],
    ids=["theorem2", "explore"],
)
def test_wreath_heights_chunk_peak_memory(n, m, bound):
    _alias_table()  # built outside the trace
    tracemalloc.start()
    try:
        wreath_heights(n, m, 250, RngState(25).generator())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_uniform_bst_stats_chunk_peak_memory():
    # all of (h, l, r): 2.13 MiB measured, 2.33 MiB while the level loop kept a tree array
    # beside its intervals, 5.80 MB while each level kept its arrays until the next level's
    # replaced them; two halves on two threads now fit in one's memory. The heights alone,
    # theorem2's uniform half: 1.95 MiB measured, 2.33 MiB with the tree array
    _alias_table()  # built outside the trace
    for edges, bound in ((True, 4 * 2**20), (False, 3 * 2**20)):
        tracemalloc.start()
        try:
            uniform_bst_stats(20_000, 250, RngState(25).generator(), edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_small_tree_draws_peak_memory():
    # 2^21 trees of at most _SMALL keys, one alias code each: 50.0 MiB measured with or without
    # the edges, the draw's u, index, alias mask and codes, which h, l and r reuse in place;
    # 66.0 MiB while every tree's size came as a count-long np.full and h, l and r as copies
    _alias_table()  # built outside the trace
    for n, edges in ((1, True), (20, True), (20, False)):
        tracemalloc.start()
        try:
            uniform_bst_stats(n, 1 << 21, RngState(25).generator(), edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 2**20


def test_theorem2_chunk_peak_memory():
    # both halves of one theorem2 chunk, on their two threads: 3.8-4.1 MiB measured over
    # seeds 1-5 and 25, as the threads' overlap moves the peak (4.2-4.8 MiB while the level
    # loop kept a tree array, 4.3-4.4 MB over seeds 1-5 while the uniform half also summed
    # its edges); the halves' own peaks, 2.9 and 1.9 MiB, sum to 4.9 MiB
    cli.theorem2_diff_data(100, 2, 10, 0)  # the alias table and the thread pool's imports, outside the trace
    tracemalloc.start()
    try:
        cli.theorem2_diff_data(10**4, 2, 250, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20


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
        want = {h | l << 24 | r << 56: c * (_ORDERS // math.factorial(s)) for (h, l, r), c in law_triples(s).items()}
        assert +got == want


@pytest.mark.parametrize("n", [*range(1, 8), 9])
def test_uniform_bst_stats_match_all_of_s_n(n):
    # the joint (h, l, r) law over every insertion order, against the split
    # draws, which take every N <= 20 whole from the alias table at the root
    exact = enumerated_triples(n)
    trials = 40_000
    obs = triples(*uniform_bst_stats(n, trials, RngState(11, n).generator()))
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        total = sum(exact.values())
        assert chi_square_pvalue(obs, {t: trials * c / total for t, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n", [20, 21, 30])
def test_uniform_bst_stats_match_word_trees(n):
    # two samples of the joint (h, l, r) law, either side of the alias-table cutoff
    trials = 40_000
    split = triples(*uniform_bst_stats(n, trials, RngState(12, n).generator()))
    words = triples(*batch_summaries(uniform_words(n, trials, RngState(13, n).generator())))
    assert two_sample_pvalue(split, words) > P_FLOOR


@pytest.mark.parametrize("n", [21, 40, 2000])
def test_uniform_bst_height_law(n):
    # the size recursion of the height law, one FFT per level, at sizes that
    # split at the root above the alias table: once, a few times, many levels
    trials, K = 10_000, min(n - 1, 80)
    cdf = uniform_height_cdf(n, K)
    pmf = np.diff(cdf, prepend=0.0)
    h = uniform_bst_stats(n, trials, RngState(14).generator())[0]
    assert h.max() <= K
    obs = Counter(h.tolist())
    assert chi_square_pvalue(obs, {k: trials * p for k, p in enumerate(pmf)}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_wreath_heights_match_the_group(n, m):
    exact = wreath_height_counts(n, m)
    total = sum(exact.values())
    trials = 30_000
    obs = Counter(wreath_heights(n, m, trials, RngState(15, 10 * n + m).generator()).tolist())
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        assert chi_square_pvalue(obs, {k: trials * c / total for k, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(9, 3), (30, 4)])
def test_wreath_heights_match_word_trees(n, m):
    # blocks deep enough that a block's own (h, l, r) must hang together
    trials = 40_000
    split = Counter(wreath_heights(n, m, trials, RngState(16, n).generator()).tolist())
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
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_uniform_over_group():
    trials = 80_000
    words = wreath_words(2, 2, trials, RngState(202).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert set(counts) <= set(classes)
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_trivial_blocks_is_uniform():
    trials = 30_000
    counts = Counter(map(tuple, wreath_words(1, 3, trials, RngState(404).generator()).tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_butterfly_samplers():
    # at n = 2 the one subtree index nonsimple_butterfly_stats draws is the class, uniform over the 8
    trials = 80_000
    state = RngState(707)
    index = state.generator().integers(0, 8, size=(trials, 1))[:, 0]
    top, sub = nonsimple_subtrees(2, trials, state.generator())
    assert np.array_equal(shape_indices(subtree_shape_bits(2, top, sub)), index)
    for a, b in zip(nonsimple_butterfly_stats(2, trials, state.generator()), stats_from_subtrees(2, top, sub)):
        np.testing.assert_array_equal(a, b)
    assert chi_square_pvalue(Counter(index.tolist()), dict.fromkeys(range(8), trials / 8)) > P_FLOOR

    # at n = 5 the top three levels are the top bit, both subtree roots and their children: 128 classes
    trials = 25_600
    state = RngState(708)
    top, sub = nonsimple_subtrees(5, trials, state.generator())
    for a, b in zip(nonsimple_butterfly_stats(5, trials, state.generator()), stats_from_subtrees(5, top, sub)):
        np.testing.assert_array_equal(a, b)
    counts = Counter(shape_indices(subtree_shape_bits(5, top, sub)[:, :7]).tolist())
    assert chi_square_pvalue(counts, dict.fromkeys(range(128), trials / 128)) > P_FLOOR

    assert (class_indices(nonsimple_butterfly_words(4, 50, RngState(2).generator()), "nonsimple") >= 0).all()
    n1 = Counter(map(tuple, nonsimple_butterfly_words(1, 2000, RngState(3).generator()).tolist()))
    assert set(n1) == {(1, 2), (2, 1)}


def test_nonsimple_butterfly_stats_are_the_trees_of_the_sampled_words():
    for n in range(1, 11):
        state = RngState(31, n)
        stats_hlr = nonsimple_butterfly_stats(n, 40, state.generator())
        trees_hlr = batch_summaries(nonsimple_butterfly_words(n, 40, state.generator()))
        for a, b in zip(stats_hlr, trees_hlr):
            np.testing.assert_array_equal(a, b)


def test_sampled_subtree_index_is_the_class_index():
    # at n = 4 the sampler draws one index per tree (no top bits): the class index of the
    # oracle word from the same stream, and the tree of that row of the enumeration
    trials = 3000
    state = RngState(909)
    index = state.generator().integers(0, 1 << 15, size=(trials, 1))[:, 0]
    assert np.array_equal(class_indices(nonsimple_butterfly_words(4, trials, state.generator()), "nonsimple"), index)
    for a, b in zip(nonsimple_butterfly_stats(4, trials, state.generator()), batch_summaries(all_nonsimple_words(4)[index])):
        np.testing.assert_array_equal(a, b)


def test_nonsimple_butterfly_stats_are_those_of_the_expanded_shape_bits():
    # the top bits and subtree indices of the sampler, and the trees built by insertion
    # from them spelled out as 2^n - 1 level-ordered bits, in one-row, odd-row and even-row
    # chunks; the depths come in shuffled order from an empty cache, so each depth's
    # top-bit order is first built by one of these calls
    depths = list(range(1, 13))
    np.random.default_rng(37).shuffle(depths)
    butterfly._top_order.cache_clear()
    for n in depths:
        for count in (1, 37, 40):
            state = RngState(37, n)
            top, sub = nonsimple_subtrees(n, count, state.generator())
            bits = subtree_shape_bits(n, top, sub)
            assert bits.shape == (count, (1 << n) - 1) and ((bits == 0) | (bits == 1)).all()
            stats_hlr = nonsimple_butterfly_stats(n, count, state.generator())
            for a, b, c in zip(stats_hlr, stats_from_subtrees(n, top, sub), batch_summaries(words_from_shape_bits(n, bits))):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
    assert butterfly._top_order.cache_info().misses == 9  # top depths 0..8, each built once
    with pytest.raises(ValueError):
        nonsimple_butterfly_stats(0, 1, RngState(0).generator())


def test_nonsimple_butterfly_stats_chunk_peak_memory():
    # one fig8 chunk at n = 16 (128 rows) peaks at 17.0 MiB measured: the uint32 words of its top
    # bits and subtree indices, 4 MB in all, their int32 (h, l, r), 2 MB each, every level's masks,
    # 2 MB, and one level's combine; the one-row chunk at n = 23 at 17.0 MiB once the depth-19
    # top-bit order is cached, 21.0 MiB when it is built inside the trace (4 MiB of intp). They read
    # 16.0 and 20.0 MiB while each chunk built its bit-reversal permutation and gathered one level's
    # masks at a time, 4 MB more while the bits and indices were numpy's int64 draws, and 30.3 MB
    # while the levels ran on int64 columns; a (128, 2^16 - 1) bit matrix alone is 64 MB
    nonsimple_butterfly_stats(16, 1, RngState(0).generator())  # the subtree tables are built outside the trace
    for n, rows, bound in ((16, 128, 20), (23, 1, 24)):
        tracemalloc.start()
        try:
            nonsimple_butterfly_stats(n, rows, RngState(n).generator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, (n, rows, peak)


def test_cached_builders_return_read_only_arrays():
    # every caller shares the cached arrays, theorem2-diff's worker thread too: a write through
    # one caller would change every later draw, so each array refuses it
    calls = {butterfly._subtree_table: [(k,) for k in range(5)], butterfly._top_order: [(d,) for d in (0, 1, 2, 6, 19)], _alias_table: [()]}
    cached = {f for m in (butterfly, sampling) for f in vars(m).values() if hasattr(f, "cache_info") and f.__module__ == m.__name__}
    assert cached == set(calls)
    for builder, args in calls.items():
        for a in args:
            out = builder(*a)
            for array in out if isinstance(out, tuple) else (out,):
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0


def test_law_sampler_base_cases():
    assert lis_law_samples(0, 3, RngState(0).generator()).tolist() == [1, 1, 1]
    assert cycle_law_samples(0, 3, RngState(0).generator()).tolist() == [1, 1, 1]
    x1 = Counter(int(v) for v in lis_law_samples(1, 4000, RngState(9).generator()))
    y1 = Counter(int(v) for v in cycle_law_samples(1, 4000, RngState(10).generator()))
    assert set(x1) == {1, 2} and set(y1) == {1, 2}
    with pytest.raises(ValueError):
        lis_law_samples(-1, 1, RngState(0).generator())


def law_samples_oracle(law: str, n: int, count: int, g: np.random.Generator) -> list[int]:
    """Level-n samples entry by entry from the all-ones level 0, each level's
    bits drawn as one (count, 2^(n-k-1)) array, as the samplers draw them."""
    rows = [[1] * (1 << n) for _ in range(count)]
    for k in range(n):
        eta = g.integers(0, 2, size=(count, 1 << (n - k - 1))).tolist()
        for i, (row, bits) in enumerate(zip(rows, eta)):
            pairs = zip(row[0::2], row[1::2], bits)
            if law == "lis":
                rows[i] = [a + b if e else max(a, b) for a, b, e in pairs]
            else:
                rows[i] = [a + e * b for a, b, e in pairs]
    return [row[0] for row in rows]


@pytest.mark.parametrize("law,sampler", [("lis", lis_law_samples), ("cycle", cycle_law_samples)])
@pytest.mark.parametrize("n", range(1, 5))
def test_law_samplers_match_the_recursion_on_the_same_draws(law, sampler, n):
    # same values from the same stream, and the stream left at the same place
    state = RngState(41, n)
    g, oracle = state.generator(), state.generator()
    assert sampler(n, 25, g).tolist() == law_samples_oracle(law, n, 25, oracle)
    assert g.integers(0, 2**62) == oracle.integers(0, 2**62)


def twin_generators(kind: str) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state: PCG64 with no half held, PCG64 holding the high
    half of a word whose low half was drawn, or MT19937 (numpy's draws, the fallback)."""
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(17)), np.random.Generator(np.random.MT19937(17))
    g, twin = np.random.default_rng(17), np.random.default_rng(17)
    if kind == "held":
        for gen in (g, twin):
            gen.integers(0, 2, size=3)
        assert g.bit_generator.state["has_uint32"] == 1
    return g, twin


DRAW_KINDS = ["fresh", "held", "mt19937"]


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 8])
def test_words_are_numpys_uint32_draws(kind, count):
    g, twin = twin_generators(kind)
    got, want = _words(g, count), twin.integers(0, 2**32, size=count, dtype=np.uint32)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)
    assert g.integers(0, 2, size=5).tolist() == twin.integers(0, 2, size=5).tolist()


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("n", [0, 1, 4, 10])
@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("law,sampler", [("lis", lis_law_samples), ("cycle", cycle_law_samples)])
def test_law_samplers_are_those_of_numpys_draws(kind, n, count, law, sampler):
    # the values and dtype of the recursion on numpy's own g.integers bits, and numpy's state after
    g, twin = twin_generators(kind)
    got = sampler(n, count, g)
    assert got.dtype == np.int64 and got.tolist() == law_samples_oracle(law, n, count, twin)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("n", [1, 4, 5, 10])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_nonsimple_butterfly_stats_are_those_of_numpys_draws(kind, n, count):
    # the trees of numpy's g.integers top bits and class indices, and numpy's state after
    g, twin = twin_generators(kind)
    got, want = nonsimple_butterfly_stats(n, count, g), stats_from_subtrees(n, *nonsimple_subtrees(n, count, twin))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)


def test_lis_law_matches_enumeration():
    # level-3 sampler against the exact LIS histogram of the 128 group elements
    exact_hist = Counter(lis(w) for w in all_nonsimple_words(3).tolist())
    counts, exp = lis_law_counts(3)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in lis_law_samples(3, trials, RngState(808).generator()))
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
    obs = Counter(int(v) for v in cycle_law_samples(4, trials, RngState(909).generator()))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR
