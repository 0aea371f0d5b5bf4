import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forge.errors import DomainError
from theta_forge.indexkit import (
    box_table,
    dual_table,
    perm_sign,
    position_sign,
    subset_rank,
    subset_tuples,
    tuple_complement,
)

from oracles import inversion_sign, sign_sum


def test_enumeration_order_and_counts():
    assert subset_tuples(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert len(subset_tuples(4, 2)) == 6
    assert subset_tuples(5, 0) == ((),)
    for g in range(1, 6):
        for k in range(g + 1):
            subs = subset_tuples(g, k)
            assert len(subs) == comb(g, k)
            assert len(set(subs)) == len(subs)
            assert list(subs) == sorted(subs)
            assert all(list(s) == sorted(set(s)) and set(s) <= set(range(1, g + 1)) for s in subs)


def test_enumeration_domain_errors():
    with pytest.raises(DomainError):
        subset_tuples(3, 4)
    with pytest.raises(DomainError):
        subset_tuples(3, -1)


def test_complement_partitions_ambient():
    for g in range(1, 6):
        full = tuple(range(1, g + 1))
        for k in range(g + 1):
            for I in subset_tuples(g, k):
                C = tuple_complement(I, full)
                assert sorted(I + C) == list(full)
                assert tuple_complement(C, full) == I


def test_sign_sum_examples():
    # the reference sign of the Hodge-dual tests: (-1)^(sum I + sum J)
    assert sign_sum((1, 2), (1, 2)) == 1
    assert sign_sum((1, 2), (1, 3)) == -1
    assert sign_sum((2,), (3,)) == -1


def test_position_sign_relabels_to_subset_positions():
    # inside H = (2, 5, 9), the pair (2, 9) sits at positions 1 and 3
    assert position_sign((2, 9), (2, 5, 9)) == 1
    assert position_sign((5,), (2, 5, 9)) == 1
    assert position_sign((2,), (2, 5, 9)) == -1


def test_tuple_complement_preserves_order():
    assert tuple_complement((2, 9), (2, 5, 9)) == (5,)
    assert tuple_complement((), (1, 3)) == (1, 3)


def test_subset_rank_is_inverse_of_enumeration():
    for g in (3, 4, 5):
        for k in range(g + 1):
            ranks = subset_rank(g, k)
            tups = subset_tuples(g, k)
            for i, t in enumerate(tups):
                assert ranks[t] == i


@given(st.lists(st.integers(0, 50), min_size=0, max_size=8, unique=True))
@settings(max_examples=200, deadline=None)
def test_perm_sign_matches_oracle(seq):
    assert perm_sign(seq) == inversion_sign(seq)


def test_box_table_is_cached_and_read_only():
    table = box_table(4, 2, 1)
    assert box_table(4, 2, 1) is table
    assert [arr.shape for arr in table] == [(comb(4, 3) ** 2, comb(3, 2) ** 2)] * 5
    assert table[4].dtype == bool
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_dual_table_is_cached_read_only_and_matches_the_complements(g):
    for k in range(g + 1):
        complement, negative = table = dual_table(g, k)
        assert dual_table(g, k) is table
        assert not complement.flags.writeable and not negative.flags.writeable
        subs = subset_tuples(g, g - k)
        rank = subset_rank(g, k)
        full = tuple(range(1, g + 1))
        assert complement.tolist() == [rank[tuple_complement(I, full)] for I in subs]
        assert negative.tolist() == [[sign_sum(I, J) < 0 for J in subs] for I in subs]
