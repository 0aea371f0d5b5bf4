"""Ordered index subsets of {1..g}, their signs, and the gather tables
that index compound matrices by them.

Everything downstream (compound matrices, the box and star products, the
wedge coordinates) is indexed by increasingly ordered subsets of a fixed
ambient set {1, ..., g}, held as plain tuples.  The canonical order of the
subsets of one cardinality is lexicographic: ``subset_tuples`` lists them,
``subset_rank`` gives each its row, and compound-matrix rows and columns
always use that order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=None)
def subset_tuples(g: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographic k-subsets of {1..g} as raw tuples (cached)."""
    if k < 0 or k > g:
        raise DomainError(f"cardinality k={k} outside 0..{g}")
    return tuple(itertools.combinations(range(1, g + 1), k))


@lru_cache(maxsize=None)
def subset_rank(g: int, k: int) -> dict[tuple[int, ...], int]:
    """Map from a k-subset tuple to its row position in the canonical order."""
    return {s: i for i, s in enumerate(subset_tuples(g, k))}


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` (entries must be distinct)."""
    seq = tuple(seq)
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


def tuple_complement(sub: tuple[int, ...], within: tuple[int, ...]) -> tuple[int, ...]:
    """Elements of ``within`` not in ``sub``, preserving order."""
    inside = set(sub)
    return tuple(i for i in within if i not in inside)


def position_sign(sub: tuple[int, ...], within: tuple[int, ...]) -> int:
    """(-1) raised to the sum of the 1-based positions of ``sub`` inside ``within``.

    This is the sign that appears when a Laplace-style expansion is applied
    to a submatrix: indices are relabeled by their position in the ambient
    subset, not by their ambient value.
    """
    pos = {v: i + 1 for i, v in enumerate(within)}
    total = sum(pos[v] for v in sub)
    return -1 if total % 2 else 1


@lru_cache(maxsize=None)
def box_table(g: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Read-only gather arrays (row_a, col_a, row_b, col_b, negative) of the
    box product at levels (p, q), built on first use.

    Row ``h * C(g, p+q) + k`` of each describes output entry (H, K), the h-th
    and k-th (p+q)-subsets.  Its C(p+q, p)² columns are the terms
    A[row_a, col_a] * B[row_b, col_b], one for each p-subset I of H and J of
    K in lexicographic order (B takes their complements), negated where
    ``negative`` holds: the positional sign of the sub-split.  The leading
    normalization 1 / C(p+q, p) is not included.
    """
    rank_p = subset_rank(g, p)
    rank_q = subset_rank(g, q)
    # each (p+q)-subset's p-splits: rank of I, rank of its complement, sign
    splits = [
        [(rank_p[I], rank_q[tuple_complement(I, H)], position_sign(I, H) < 0)
         for I in itertools.combinations(H, p)]
        for H in subset_tuples(g, p + q)
    ]
    terms = np.array(
        [
            (ia, ja, ib, jb, neg_i != neg_j)
            for row in splits
            for col in splits
            for ia, ib, neg_i in row
            for ja, jb, neg_j in col
        ],
        dtype=np.intp,
    ).reshape(len(splits) ** 2, -1, 5)
    fields = (*(terms[..., i].copy() for i in range(4)), terms[..., 4] == 1)
    for arr in fields:
        arr.flags.writeable = False
    return fields


@lru_cache(maxsize=None)
def dual_table(g: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather arrays (complement, negative) of the Hodge dual of a
    level-k compound, built on first use.

    Entry a of ``complement`` is the rank among the k-subsets of the
    complement of the a-th (g-k)-subset, and ``negative[a, b]`` holds where
    the a-th and b-th (g-k)-subsets have an odd sum of indices: output entry
    (a, b) is the input entry (complement[a], complement[b]), negated there.
    """
    rank = subset_rank(g, k)
    full = tuple(range(1, g + 1))
    subs = subset_tuples(g, g - k)
    complement = np.array([rank[tuple_complement(I, full)] for I in subs], dtype=np.intp)
    odd = np.array([sum(I) % 2 for I in subs], dtype=bool)
    negative = odd[:, None] != odd[None, :]
    for arr in (complement, negative):
        arr.flags.writeable = False
    return complement, negative


@lru_cache(maxsize=None)
def minor_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather arrays (column, rest) of the level-p minors over n
    columns: for the b-th p-subset J, ``column[b, t]`` is J[t] - 1 and
    ``rest[b, t]`` the rank of J without J[t] among the (p-1)-subsets."""
    rank = subset_rank(n, p - 1)
    subs = subset_tuples(n, p)
    column = np.array([[j - 1 for j in J] for J in subs], dtype=np.intp)
    rest = np.array([[rank[J[:t] + J[t + 1:]] for t in range(p)] for J in subs], dtype=np.intp)
    for arr in (column, rest):
        arr.flags.writeable = False
    return column, rest

