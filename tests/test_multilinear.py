import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forge.errors import DomainError
from theta_forge.indexkit import subset_rank, subset_tuples, tuple_complement
from theta_forge.multilinear import (
    CompoundMatrix,
    _det_exact,
    _minor_table,
    box_many,
    box_power,
    box_product,
    cofactor_tensor,
    compound,
    from_matrix,
    hodge_dual,
    scalar_compound,
    star_product,
    wedge_coordinates,
    wedge_outer,
    zero_compound,
)

from oracles import (
    det_of_array,
    frac_matrix_from_ints,
    formula_det,
    fraction_det,
    inversion_sign,
    laplace_det,
    loop_box_many,
    loop_box_product,
    sign_sum,
)


def _rand_int(rng, g):
    return rng.integers(-5, 6, (g, g))


def _rand_complex(rng, g):
    return rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))


def _sub_det(M, I, J):
    """The oracle's determinant of the submatrix of M on rows I and columns J (1-based)."""
    return det_of_array(M[np.ix_([i - 1 for i in I], [j - 1 for j in J])])


# ---------------------------------------------------------------------------
# submatrix determinants: the entries of the compound


def test_submatrix_det_identity_blocks():
    g = 4
    eye = np.eye(g, dtype=complex)
    for k in (1, 2, 3):
        minors, rank = compound(eye, k).entries, subset_rank(g, k)
        for I in subset_tuples(g, k):
            for J in subset_tuples(g, k):
                want = 1.0 if I == J else 0.0
                assert minors[rank[I], rank[J]] == pytest.approx(want)


def test_submatrix_det_two_by_two():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert compound(M, 2).scalar() == pytest.approx(-2.0)


def test_submatrix_det_against_recursive_oracle(rng):
    M = frac_matrix_from_ints(_rand_int(rng, 4))
    minors, rank = compound(M, 2).entries, subset_rank(4, 2)
    for I in subset_tuples(4, 2):
        for J in subset_tuples(4, 2):
            assert minors[rank[I], rank[J]] == _sub_det(M, I, J)


# ---------------------------------------------------------------------------
# compound and cofactor tensors


def test_compound_of_identity_and_top_level(rng):
    for g in (2, 3, 4):
        for p in range(1, g + 1):
            c = compound(np.eye(g, dtype=complex), p)
            assert np.allclose(c.entries, np.eye(math.comb(g, p)))
        M = _rand_complex(rng, g)
        top = compound(M, g)
        assert top.entries.shape == (1, 1)
        assert top.entries[0, 0] == pytest.approx(np.linalg.det(M))


def test_compound_multiplicativity(rng):
    for g in (3, 4):
        A = _rand_complex(rng, g)
        B = _rand_complex(rng, g)
        for p in (2, g - 1):
            lhs = compound(A @ B, p).entries
            rhs = compound(A, p).entries @ compound(B, p).entries
            assert np.allclose(lhs, rhs)


def test_cofactor_examples():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    c1 = cofactor_tensor(M, 1)
    assert np.allclose(c1.entries, [[4, -3], [-2, 1]])
    assert np.allclose(M @ c1.entries.T, np.linalg.det(M) * np.eye(2))
    c0 = cofactor_tensor(M, 0)
    assert c0.scalar() == pytest.approx(-2.0)


def test_cofactor_of_identity_is_identity():
    for g in (2, 3, 4):
        for k in range(g):
            c = cofactor_tensor(np.eye(g, dtype=complex), k)
            assert np.allclose(c.entries, np.eye(math.comb(g, k)))


def test_cofactor_level_domain_error():
    with pytest.raises(DomainError):
        cofactor_tensor(np.eye(3), 3)


def test_adjoint_identity_exact(rng):
    for g in (2, 3, 4):
        M = frac_matrix_from_ints(_rand_int(rng, g))
        adj = cofactor_tensor(M, 1).entries.T
        prod = M @ adj
        det = det_of_array(M)
        for i in range(g):
            for j in range(g):
                assert prod[i, j] == (det if i == j else 0)


# ---------------------------------------------------------------------------
# box product


def test_box_identity_example():
    one = from_matrix(np.eye(2, dtype=complex))
    out = box_product(one, one)
    assert out.level == 2
    assert out.entries[0, 0] == pytest.approx(1.0)


def test_box_power_equals_compound_float(rng):
    for g in (2, 3, 4):
        M = _rand_complex(rng, g)
        for k in range(1, g + 1):
            assert np.allclose(
                box_power(from_matrix(M), k).entries, compound(M, k).entries
            )


def test_box_power_equals_compound_exact(rng):
    for g in (3, 4):
        M = frac_matrix_from_ints(_rand_int(rng, g))
        for k in range(2, g + 1):
            assert (box_power(from_matrix(M), k).entries == compound(M, k).entries).all()


def test_box_mixed_determinant_oracle_exact(rng):
    # entries of a k-fold box of distinct matrices equal the averaged
    # signed determinants with mixed columns
    for g, k in ((3, 2), (4, 2), (4, 3)):
        mats = [frac_matrix_from_ints(_rand_int(rng, g)) for _ in range(k)]
        prod = box_many([from_matrix(A) for A in mats])
        rank = subset_rank(g, k)
        for I in itertools.combinations(range(1, g + 1), k):
            for J in itertools.combinations(range(1, g + 1), k):
                acc = Fraction(0)
                for sigma in itertools.permutations(range(k)):
                    sgn = inversion_sign(sigma)
                    mixed = [
                        [mats[pos][I[r] - 1, J[sigma[pos]] - 1] for pos in range(k)]
                        for r in range(k)
                    ]
                    acc += sgn * det_of_array(np.array(mixed, dtype=object))
                acc /= math.factorial(k)
                got = prod.entries[rank[I], rank[J]]
                assert got == acc, (g, k, I, J)


def test_box_symmetry_and_associativity(rng):
    g = 4
    A = from_matrix(_rand_complex(rng, g))
    B = from_matrix(_rand_complex(rng, g))
    C = from_matrix(_rand_complex(rng, g))
    ab = box_product(A, B)
    ba = box_product(B, A)
    assert np.allclose(ab.entries, ba.entries, rtol=1e-12)
    lhs = box_product(box_product(A, B), C).entries
    rhs = box_product(A, box_product(B, C)).entries
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_box_with_scalar_level():
    g = 3
    s = scalar_compound(g, 2.5)
    M = from_matrix(np.eye(g, dtype=complex))
    out = box_product(s, M)
    assert out.level == 1
    assert np.allclose(out.entries, 2.5 * np.eye(g))


def test_box_level_overflow():
    g = 2
    A = from_matrix(np.eye(g, dtype=complex))
    with pytest.raises(DomainError):
        box_many([A, A, A])


def test_binomial_expansion_of_box_powers_exact(rng):
    for g, kmax in ((3, 3), (4, 3)):
        A = frac_matrix_from_ints(_rand_int(rng, g))
        B = frac_matrix_from_ints(_rand_int(rng, g))
        for k in range(1, kmax + 1):
            lhs = box_power(from_matrix(A + B), k)
            rhs = None
            for j in range(k + 1):
                term = box_many(
                    [box_power(from_matrix(A), j), box_power(from_matrix(B), k - j)]
                ).scale(Fraction(math.comb(k, j)))
                rhs = term if rhs is None else rhs + term
            assert (lhs.entries == rhs.entries).all()


def _rand_level(rng, g, k, kind):
    side = math.comb(g, k)
    if kind == "complex":
        x = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        # signed zeros: whether they survive shows the order of the additions
        x.real[rng.random(x.shape) < 0.2] = -0.0
        x.imag[rng.random(x.shape) < 0.2] = 0.0
        return CompoundMatrix(g, k, x)
    x = rng.integers(-5, 6, (side, side)).astype(object)
    if kind == "fraction":
        x = np.frompyfunc(Fraction, 2, 1)(x, rng.integers(1, 4, x.shape).astype(object))
    return CompoundMatrix(g, k, x)


def _assert_same(got, want, kind, where):
    if kind == "complex":
        # bit for bit, signed zeros included
        bits = [np.ascontiguousarray(x).view(np.uint64) for x in (got, want)]
        assert np.array_equal(*bits), where
    else:
        assert (got == want).all(), where


@pytest.mark.parametrize("kind", ["complex", "int", "fraction"])
def test_gathered_box_product_matches_loop_oracle(rng, kind):
    for g in range(1, 5):
        for p in range(g + 1):
            for q in range(g + 1 - p):
                for _ in range(3):
                    A, B = _rand_level(rng, g, p, kind), _rand_level(rng, g, q, kind)
                    got = box_product(A, B).entries
                    _assert_same(got, loop_box_product(A, B), kind, (g, p, q))


@pytest.mark.parametrize("kind", ["complex", "int", "fraction"])
def test_box_many_matches_stepwise_loop_oracle(rng, kind):
    # exact chains divide once at the end, float chains at every step
    for g in range(1, 5):
        for n in (2, 3, 4):
            for levels in itertools.product(range(g + 1), repeat=n):
                if sum(levels) > g:
                    continue
                factors = [_rand_level(rng, g, k, kind) for k in levels]
                got = box_many(factors).entries
                _assert_same(got, loop_box_many(factors), kind, (g, levels))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_bareiss_det_matches_fraction_elimination(rng, kind):
    zeros = 0
    for n in range(7):
        for trial in range(24):
            M = rng.integers(-4, 5, (n, n)).astype(object)
            if kind == "fraction":
                M = np.frompyfunc(Fraction, 2, 1)(M, rng.integers(1, 5, (n, n)).astype(object))
            if n > 1 and trial % 4 == 1:
                M[0, 0] = 0  # the leading pivot needs a row swap
            if n > 1 and trial % 4 == 2:
                M[1, :2] = M[0, :2]  # the second pivot vanishes mid-elimination
            if n > 1 and trial % 4 == 3:
                M[-1] = 2 * M[0]  # singular
            got = _det_exact(M)
            assert got == fraction_det(M), (n, trial)
            if kind == "int":
                assert isinstance(got, int)
            zeros += got == 0
    assert zeros >= 18


# ---------------------------------------------------------------------------
# star product, hodge dual, wedges


def test_star_power_equals_cofactor(rng):
    for g in (2, 3, 4):
        M = _rand_complex(rng, g)
        got = star_product(*[from_matrix(M)] * (g - 1)).entries
        want = cofactor_tensor(M, 1).entries
        assert np.allclose(got, want)


def test_star_of_rank_one_matches_wedge(rng):
    for g in (2, 3, 4):
        for k in range(1, g + 1):
            V = rng.standard_normal((k, g)) + 1j * rng.standard_normal((k, g))
            lhs = star_product(
                *[from_matrix(np.outer(v, v)) for v in V]
            ).entries * math.factorial(k)
            rhs = wedge_outer(V).entries
            assert np.allclose(lhs, rhs)


def test_wedge_outer_examples():
    w = wedge_outer(np.array([[1.0, 2.0]]))
    assert np.allclose(w.entries, [[4, -2], [-2, 1]])
    coords = wedge_coordinates(np.array([[1.0, 2.0]]))
    assert np.allclose(coords, [2.0, -1.0])


def test_wedge_outer_top_level_is_squared_det(rng):
    for g in (2, 3):
        V = rng.standard_normal((g, g))
        out = wedge_outer(V)
        assert out.level == 0
        assert out.scalar() == pytest.approx(np.linalg.det(V) ** 2)


def test_wedge_outer_dependent_vectors_vanish():
    V = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert wedge_outer(V).max_abs() == 0.0


def test_wedge_outer_too_many_vectors():
    with pytest.raises(DomainError):
        wedge_outer(np.ones((3, 2)))


def test_hodge_dual_is_sign_twist(rng):
    g = 3
    M = _rand_complex(rng, g)
    X = compound(M, 2)
    D = hodge_dual(X)
    assert D.level == 1
    full = tuple(range(1, g + 1))
    for a, I in enumerate(subset_tuples(g, 1)):
        for b, J in enumerate(subset_tuples(g, 1)):
            # the complementary minor of M, from the oracle's determinant
            minor = _sub_det(M, tuple_complement(I, full), tuple_complement(J, full))
            assert D.entries[a, b] == pytest.approx(sign_sum(I, J) * minor)


def test_hodge_dual_of_compound_is_cofactor(rng):
    for g in (3, 4):
        M = _rand_complex(rng, g)
        for k in range(1, g):
            assert np.allclose(
                hodge_dual(compound(M, k)).entries,
                cofactor_tensor(M, g - k).entries,
            )


# ---------------------------------------------------------------------------
# generalized Laplace expansion


def test_generalized_laplace_expansion_exact(rng):
    for g in (3, 4):
        M = frac_matrix_from_ints(_rand_int(rng, g))
        det = det_of_array(M)
        full = tuple(range(1, g + 1))
        for k in range(1, g):
            minors, cofactors = compound(M, k).entries, cofactor_tensor(M, k).entries
            subs = subset_tuples(g, k)
            for b, J in enumerate(subs):
                col_total = row_total = Fraction(0)
                for a, I in enumerate(subs):
                    # both tensors against the oracle's determinants
                    rest = tuple_complement(I, full), tuple_complement(J, full)
                    assert minors[a, b] == _sub_det(M, I, J)
                    assert cofactors[a, b] == sign_sum(I, J) * _sub_det(M, *rest)
                    col_total += minors[a, b] * cofactors[a, b]
                    row_total += minors[b, a] * cofactors[b, a]
                assert col_total == det
                assert row_total == det


# ---------------------------------------------------------------------------
# the minor table and stacks


def test_minor_table_matches_cofactor_recursion_exact(rng):
    # rectangular too: the wedge reads the maximal minors of k rows
    for r in range(1, 5):
        for c in range(1, 5):
            A = rng.integers(-5, 6, (r, c)).astype(object)
            for p in range(min(r, c) + 1):
                got = _minor_table(A, p)
                assert got.shape == (math.comb(r, p), math.comb(c, p))
                for a, I in enumerate(itertools.combinations(range(r), p)):
                    for b, J in enumerate(itertools.combinations(range(c), p)):
                        want = laplace_det(A[np.ix_(I, J)].tolist())
                        assert got[a, b] == want and type(got[a, b]) is int, (r, c, p, I, J)


def _bits(x):
    return np.array([complex(x)]).view(np.uint64).tolist()


def test_float_minors_are_the_cofactor_formulas_bit_for_bit(rng):
    for g in range(1, 5):
        for _ in range(20):
            M = _rand_complex(rng, g)
            for p in range(1, min(g, 3) + 1):
                got = compound(M, p).entries
                for a, I in enumerate(itertools.combinations(range(g), p)):
                    for b, J in enumerate(itertools.combinations(range(g), p)):
                        want = formula_det(M[np.ix_(I, J)])
                        assert _bits(got[a, b]) == _bits(want), (g, p, I, J)
            if g <= 3:
                assert _bits(cofactor_tensor(M, 0).scalar()) == _bits(formula_det(M))


_STACK = 3


def _check_stack(call, inputs, kind, where):
    """Each slice of call(*inputs) on stacks of _STACK is bit for bit the call
    on the slices; a result without stack axes (box power 0) is one for all."""
    def sliced(x, i):
        return x[i] if isinstance(x, np.ndarray) else CompoundMatrix(x.ambient, x.level, x.entries[i])

    got = call(*inputs)
    entries = got.entries if isinstance(got, CompoundMatrix) else got
    for i in range(_STACK):
        want = call(*[sliced(x, i) for x in inputs])
        want = want.entries if isinstance(want, CompoundMatrix) else want
        _assert_same(entries[i] if entries.ndim > want.ndim else entries, want, kind, where)


@pytest.mark.parametrize("kind", ["complex", "int"])
def test_every_compound_operation_acts_on_a_stack_slice_by_slice(rng, kind):
    def stack(g, k, rows=None):
        return np.stack([_rand_level(rng, g, k, kind).entries[:rows] for _ in range(_STACK)])

    def level(g, k):
        return CompoundMatrix(g, k, stack(g, k))

    for g in range(1, 5):
        M = stack(g, 1)
        for p in range(1, g + 1):
            _check_stack(lambda A: compound(A, p), [M], kind, ("compound", g, p))
        for k in range(g):
            _check_stack(lambda A: cofactor_tensor(A, k), [M], kind, ("cofactor", g, k))
        for k in range(g + 1):
            _check_stack(hodge_dual, [level(g, k)], kind, ("dual", g, k))
            _check_stack(lambda A: box_power(from_matrix(A), k), [M], kind, ("power", g, k))
            _check_stack(wedge_outer, [stack(g, 1, rows=k)], kind, ("wedge", g, k))
        for levels in itertools.product(range(g + 1), repeat=3):
            if sum(levels) > g:
                continue
            factors = [level(g, k) for k in levels]
            _check_stack(lambda *f: box_many(f), factors, kind, ("box", g, levels))
            _check_stack(star_product, factors, kind, ("star", g, levels))


# ---------------------------------------------------------------------------
# CompoundMatrix plumbing


def test_compound_matrix_validation():
    with pytest.raises(DomainError):
        CompoundMatrix(3, 2, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        CompoundMatrix(3, 4, np.zeros((1, 1)))


def test_compound_matrix_algebra():
    a = CompoundMatrix(3, 2, np.eye(3, dtype=complex))
    z = zero_compound(3, 2)
    assert np.allclose((a + z).entries, a.entries)
    assert a.scale(2.0).entries[0, 0] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        a + CompoundMatrix(3, 1, np.eye(3, dtype=complex))


@given(st.integers(2, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_property_star_twist_round_trip(g, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((g, g))
    for k in range(1, g):
        X = compound(M, k)
        assert np.allclose(hodge_dual(hodge_dual(X)).entries, X.entries)
