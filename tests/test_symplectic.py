from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stepwise_subgroup_element
from theta_forge.errors import DomainError, NumericalDegeneracyError
from theta_forge.symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    act_on_tau,
    all_characteristics,
    automorphy_factor,
    even_characteristics,
    _generator_pool,
    generate_subgroup_element,
    load_siegel_point,
    membership,
    odd_characteristics,
    parity,
    phi_factor,
    phi_rational,
    sample_siegel_point,
    symplectic_form,
)


def _inversion(g):
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return SymplecticElement.from_blocks(zero, -eye, eye, zero)


def _upper(B):
    B = np.asarray(B)
    g = B.shape[0]
    return SymplecticElement.from_blocks(np.eye(g, dtype=int), B, np.zeros((g, g), dtype=int), np.eye(g, dtype=int))


# ---------------------------------------------------------------------------
# construction and invariants


def test_symplectic_relation_enforced():
    with pytest.raises(DomainError):
        SymplecticElement(np.eye(4, dtype=int) * 2)
    eye = SymplecticElement(np.eye(4, dtype=int))
    J = symplectic_form(2)
    assert (eye.mat.T @ J @ eye.mat == J).all()


def test_blocks_and_inverse():
    g = 2
    gamma = generate_subgroup_element("Gamma(2)", g, 5, 6)
    assert gamma.A.shape == (g, g)


def test_siegel_point_validation():
    with pytest.raises(DomainError):
        SiegelPoint(np.array([[1.0 + 0j, 2.0], [2.1, 3.0]]) + 1j * np.eye(2))
    with pytest.raises(DomainError):
        SiegelPoint(np.array([[1.0 - 1j]]))
    p = SiegelPoint(np.array([[0.25 + 1j]]))
    assert p.g == 1


def test_json_round_trips(rng):
    gamma = generate_subgroup_element("Gamma(2,4)", 2, 9, 5)
    assert SymplecticElement.from_json(gamma.to_json()) == gamma
    point = sample_siegel_point(3, rng)
    back = SiegelPoint.from_json(point.to_json())
    assert np.allclose(back.tau, point.tau)


@pytest.mark.parametrize(
    "content",
    [
        '{"re": [[1.0]]}',
        "[1, 2]",
        '"text"',
        '{"re": "a", "im": "b"}',
        '{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[1.0, 0.0], [0.0]]}',
        "{not json",
    ],
    ids=["no-im", "list", "string", "not-numbers", "ragged-im", "not-json"],
)
def test_malformed_point_json_raises_domain_error(tmp_path, content):
    path = tmp_path / "tau.json"
    path.write_text(content)
    with pytest.raises(DomainError):
        load_siegel_point(str(path))


_ONE = {"A": [[1]], "B": [[0]], "C": [[0]], "D": [[1]]}


@pytest.mark.parametrize(
    "data",
    [
        {},
        [1],
        "text",
        {**_ONE, "D": "x"},
        {**_ONE, "D": [[1, 0], [1]]},
        {**_ONE, "D": [[float("nan")]]},
        {"A": [[1.5]], "B": [[0.2]], "C": [[0]], "D": [[1]]},
    ],
    ids=["no-blocks", "list", "string", "not-numbers", "ragged-block", "nan", "fractional"],
)
def test_malformed_group_element_json_raises_domain_error(data):
    # the contract of SiegelPoint.from_json; a fractional entry is not
    # truncated to an integer (the last case would read as the identity)
    with pytest.raises(DomainError):
        SymplecticElement.from_json(data)


# ---------------------------------------------------------------------------
# actions


def test_act_on_tau_identity_and_inversion_fixed_point():
    tau = SiegelPoint(np.array([[1j]]))
    assert np.allclose(act_on_tau(SymplecticElement(np.eye(2, dtype=int)), tau).tau, tau.tau)
    assert np.allclose(act_on_tau(_inversion(1), tau).tau, [[1j]])


def test_act_on_tau_composition(rng):
    for g in (1, 2, 3):
        t = sample_siegel_point(g, rng)
        g1 = generate_subgroup_element("Gamma(2)", g, 31, 5)
        g2 = generate_subgroup_element("Gamma(2)", g, 32, 5)
        lhs = act_on_tau(SymplecticElement(g1.mat @ g2.mat), t).tau
        rhs = act_on_tau(g1, act_on_tau(g2, t)).tau
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_act_on_tau_preserves_invariants(rng):
    t = sample_siegel_point(2, rng)
    gamma = generate_subgroup_element("Gamma(2)", 2, 77, 6)
    moved = act_on_tau(gamma, t)
    assert np.max(np.abs(moved.tau - moved.tau.T)) < 1e-12
    assert np.all(np.linalg.eigvalsh(moved.tau.imag) > 0)


def test_act_on_tau_degenerate_denominator():
    tau = SiegelPoint(np.diag([1e-14j, 1j]))
    with pytest.raises(NumericalDegeneracyError):
        act_on_tau(_inversion(2), tau)


# ---------------------------------------------------------------------------
# parity and characteristic enumeration


def test_parity_values():
    assert parity(Characteristic((0,), (0,))) == 0
    assert parity(Characteristic((1,), (1,))) == 1
    assert len(odd_characteristics(2)) == 6
    assert len(even_characteristics(2)) == 10
    assert len(all_characteristics(3)) == 64
    assert len(odd_characteristics(3)) == 28


def test_characteristic_validation_and_addition():
    with pytest.raises(DomainError):
        Characteristic((2,), (0,))
    with pytest.raises(DomainError):
        Characteristic((0, 1), (0,))
    s = Characteristic((1, 0), (1, 1)) + Characteristic((1, 1), (0, 1))
    assert s == Characteristic((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# membership


def test_identity_in_all_groups():
    eye = SymplecticElement(np.eye(4, dtype=int))
    for grp in ("Gamma(2)", "Gamma(2,4)", "Gamma(4,8)"):
        assert membership(eye, grp)


def test_upper_translation_membership_depends_on_diagonal():
    # B = 2S lands in the level-(2,4) group exactly when diag(B) is 0 mod 4
    S_odd_diag = np.array([[1, 0], [0, 1]])
    S_even_diag = np.array([[2, 1], [1, 2]])
    gamma_odd = _upper(2 * S_odd_diag)
    gamma_even = _upper(2 * S_even_diag)
    assert membership(gamma_odd, "Gamma(2)")
    assert not membership(gamma_odd, "Gamma(2,4)")
    assert membership(gamma_even, "Gamma(2,4)")


def test_containment_chain():
    for g in (1, 2, 3):
        for seed in range(4):
            e48 = generate_subgroup_element("Gamma(4,8)", g, seed, 5)
            assert membership(e48, "Gamma(2,4)")
            assert membership(e48, "Gamma(2)")
            e24 = generate_subgroup_element("Gamma(2,4)", g, seed, 5)
            assert membership(e24, "Gamma(2)")


def test_unknown_group_rejected():
    # the groups are the three of the table: the symplectic group itself,
    # Gamma(n) at other levels and spaced spellings are refused
    for group in ("Gamma(3,5)", "Sp", "Gamma(4)", "Gamma(2, 4)"):
        with pytest.raises(DomainError):
            membership(SymplecticElement(np.eye(2, dtype=int)), group)


# ---------------------------------------------------------------------------
# generators


def test_generated_words_deterministic_and_member():
    a = generate_subgroup_element("Gamma(2,4)", 2, 11, 7)
    b = generate_subgroup_element("Gamma(2,4)", 2, 11, 7)
    assert a == b
    assert membership(a, "Gamma(2,4)")
    assert generate_subgroup_element("Gamma(2)", 2, 1, 0) == SymplecticElement(np.eye(4, dtype=int))


@settings(max_examples=150, deadline=None)
@given(
    group=st.sampled_from(["Gamma(2)", "Gamma(2,4)"]),
    g=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 7),
)
def test_generated_word_matches_stepwise_oracle(group, g, seed, length):
    # the product validated once is the element the stepwise products give
    word = generate_subgroup_element(group, g, seed, length)
    assert word == stepwise_subgroup_element(group, g, seed, length)
    assert all(type(x) is int for x in word.mat.flat)
    # its C tau + D, read from the lower rows, is bit for bit the product of
    # the blocks converted one by one
    tau = sample_siegel_point(g, np.random.default_rng(seed)).tau
    want = word.C.astype(float) @ tau + word.D.astype(float)
    assert np.array_equal(automorphy_factor(word, tau), want)


def test_generator_pool_rejects_unknown_group():
    with pytest.raises(DomainError):
        generate_subgroup_element("Gamma(8,16)", 2, 0, 3)


def test_generator_pool_is_built_once_per_group_and_genus():
    pool = _generator_pool("Gamma(2,4)", 3)
    assert isinstance(pool, tuple)
    assert _generator_pool("Gamma(2,4)", 3) is pool
    assert _generator_pool("Gamma(2)", 3) is not pool
    # the word seed includes len(pool): 6 symmetric basis elements x 4, 6 unipotents, 3 flips
    assert len(pool) == 33


# ---------------------------------------------------------------------------
# multiplier phase


def test_phi_identity_is_one():
    eye = SymplecticElement(np.eye(4, dtype=int))
    for m in all_characteristics(2):
        assert phi_factor(m, eye) == pytest.approx(1.0)


def test_phi_translation_hand_values():
    t2 = _upper(np.array([[2]]))
    assert phi_rational(Characteristic((0,), (0,)), t2) == 0
    assert phi_rational(Characteristic((1,), (0,)), t2) == Fraction(1, 4)
    assert phi_factor(Characteristic((1,), (0,)), t2) == pytest.approx(1j)


def test_phi_trivial_on_deep_level():
    for g in (1, 2, 3):
        for seed in range(3):
            gamma = generate_subgroup_element("Gamma(4,8)", g, 40 + seed, 6)
            for m in all_characteristics(g):
                assert abs(phi_factor(m, gamma) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# base-point sampling


def test_sample_siegel_point_conditioning(rng):
    for g in (1, 2, 3, 4):
        for _ in range(5):
            p = sample_siegel_point(g, rng)
            assert np.min(np.linalg.eigvalsh(p.tau.imag)) >= 0.5
            assert np.max(np.abs(p.tau.real)) <= 0.5
