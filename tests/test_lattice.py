import pytest

from butterfly_trees.exact import simple_height_counts
from butterfly_trees.lattice import degree_multiset

from conftest import explicit_degree_multiset


def test_degree_multiset_examples():
    assert degree_multiset(3) == {7: 2, 4: 6}
    assert degree_multiset(1) == {1: 2}
    with pytest.raises(ValueError):
        degree_multiset(0)
    with pytest.raises(ValueError):
        degree_multiset(21)


def test_degree_multiset_equals_height_counts():
    for n in range(1, 13):
        assert degree_multiset(n) == simple_height_counts(n)


def test_analytic_matches_explicit_adjacency():
    for n in range(1, 13):
        assert degree_multiset(n) == explicit_degree_multiset(n)
