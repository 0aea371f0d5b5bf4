import itertools
import math

import numpy as np
import pytest

from theta_forge.errors import DomainError, ExpressionParseError
from theta_forge.forms import (
    A_form,
    A_star,
    MultiplierSpec,
    SecondOrderFactor,
    ThetaConstantFactor,
    ThetaProduct,
    W_of_N,
    audit_transformation,
    eval_product,
    pairing_brace,
    pairing_bracket,
    parse_theta_expression,
    partial_bracket,
    rho_k_action,
    second_order_product,
    theta_constant_product,
)
from theta_forge.identities import conditioned_words
from theta_forge.multilinear import (
    box_power,
    cofactor_tensor,
    compound,
    from_matrix,
    star_product,
    wedge_outer,
)
from theta_forge.symplectic import (
    Characteristic,
    SymplecticElement,
    even_characteristics,
    odd_characteristics,
    sample_siegel_point,
)
from theta_forge.theta import theta_eval, theta_gradient


# ---------------------------------------------------------------------------
# products and factors


def test_factor_validation():
    with pytest.raises(DomainError):
        ThetaConstantFactor(Characteristic((1,), (1,)))  # odd
    with pytest.raises(DomainError):
        SecondOrderFactor((0, 2))
    with pytest.raises(DomainError):
        ThetaProduct(2, (SecondOrderFactor((0,)),))  # genus mismatch


def test_eval_product_basics(tau_g2):
    empty = ThetaProduct(2, ())
    assert eval_product(empty, tau_g2) == 1.0
    m = even_characteristics(2)[1]
    single = theta_constant_product(2, m)
    assert eval_product(single, tau_g2) == pytest.approx(
        theta_eval(m, tau_g2).value
    )
    pair = single.power(2)
    assert eval_product(pair, tau_g2) == pytest.approx(
        theta_eval(m, tau_g2).value ** 2
    )


# ---------------------------------------------------------------------------
# derivative brackets


def test_partial_bracket_order_zero_and_overflow(tau_g2):
    f = theta_constant_product(2, even_characteristics(2)[0])
    assert partial_bracket(f, 0, tau_g2).scalar() == pytest.approx(
        eval_product(f, tau_g2)
    )
    with pytest.raises(DomainError):
        partial_bracket(f, 3, tau_g2)


def test_partial_bracket_rank_one_vanishing(rng):
    # a single weight-1/2 factor has rank one: order-2 minors vanish exactly
    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        f = theta_constant_product(g, even_characteristics(g)[2])
        assert partial_bracket(f, 2, t).max_abs() == 0.0
        s = second_order_product(g, (0,) * g)
        assert partial_bracket(s, 2, t).max_abs() == 0.0


def test_partial_bracket_order_one_is_derivative_matrix(rng):
    g = 2
    t = sample_siegel_point(g, rng)
    m = even_characteristics(g)[3]
    f = theta_constant_product(g, m)
    got = partial_bracket(f, 1, t).entries
    assert np.allclose(got, theta_eval(m, t, want_tau_derivative=True).tau_derivative)


def test_partial_bracket_product_rule_vs_finite_difference(rng):
    # order-1 bracket of a two-factor product against naive differentiation
    g = 2
    t = sample_siegel_point(g, rng)
    m1, m2 = even_characteristics(g)[0], even_characteristics(g)[4]
    f = theta_constant_product(g, m1, m2)
    got = partial_bracket(f, 1, t).entries
    h = 1e-5

    def product_at(tau_arr):
        v = theta_eval(m1, tau_arr).value * theta_eval(m2, tau_arr).value
        return v

    from theta_forge.symplectic import SiegelPoint

    for a in range(g):
        for b in range(a, g):
            E = np.zeros((g, g))
            E[a, b] = E[b, a] = h
            fd = (product_at(SiegelPoint(t.tau + E)) - product_at(SiegelPoint(t.tau - E))) / (2 * h)
            want = fd if a == b else fd / 2
            assert got[a, b] == pytest.approx(want, abs=1e-6)


def test_partial_bracket_power_formula(rng):
    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        m = even_characteristics(g)[1]
        f1 = theta_constant_product(g, m)
        val = eval_product(f1, t)
        dmat = from_matrix(theta_eval(m, t, want_tau_derivative=True).tau_derivative)
        for l in (2, 3):
            for k in (1, 2):
                if k > min(l, g):
                    continue
                got = partial_bracket(f1.power(l), k, t)
                coeff = math.prod(range(l - k + 1, l + 1)) * val ** (l - k)
                want = box_power(dmat, k).scale(coeff)
                scale = max(got.max_abs(), want.max_abs())
                assert np.max(np.abs(got.entries - want.entries)) < 1e-10 * scale


def test_more_derivative_slots_than_factors_vanish(rng):
    g = 3
    t = sample_siegel_point(g, rng)
    f = theta_constant_product(g, *even_characteristics(g)[:2])
    assert partial_bracket(f, 3, t).max_abs() == 0.0


# ---------------------------------------------------------------------------
# A-forms and pairings


def test_A_form_requires_single_factors(tau_g2):
    m = even_characteristics(2)[0]
    single = theta_constant_product(2, m)
    double = single.power(2)
    with pytest.raises(DomainError):
        A_form(double, single, tau_g2)


def test_A_form_antisymmetry_exact(tau_g2):
    F = second_order_product(2, (0, 0))
    H = second_order_product(2, (1, 0))
    a = A_form(F, H, tau_g2).entries
    b = A_form(H, F, tau_g2).entries
    assert np.max(np.abs(a + b)) == 0.0
    assert A_form(F, F, tau_g2).max_abs() == 0.0


def test_A_form_is_symmetric_matrix(tau_g3):
    F = second_order_product(3, (0, 0, 0))
    H = second_order_product(3, (0, 1, 1))
    a = A_form(F, H, tau_g3).entries
    assert np.max(np.abs(a - a.T)) == 0.0


def test_A_form_wronskian_vs_finite_difference(rng):
    # scalar case: the order-1 pairing is a Wronskian in the modulus
    t = sample_siegel_point(1, rng)
    F = second_order_product(1, (0,))
    H = second_order_product(1, (1,))
    got = A_form(F, H, t).entries[0, 0]
    h = 1e-5
    from theta_forge.symplectic import SiegelPoint
    from theta_forge.theta import second_order_theta

    def pair(tt):
        p = SiegelPoint(np.array([[tt]]))
        return (
            second_order_theta((0,), p).value,
            second_order_theta((1,), p).value,
        )

    t0 = complex(t.tau[0, 0])
    fp, hp = pair(t0 + h)
    fm, hm = pair(t0 - h)
    f0, h0 = pair(t0)
    fd = f0 * (hp - hm) / (2 * h) - h0 * (fp - fm) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-5)


def test_brace_order_one_equals_A_form(rng):
    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        F = second_order_product(g, (0,) * g)
        H = second_order_product(g, (1,) + (0,) * (g - 1))
        brace = pairing_brace(F, H, 1, t)
        a = A_form(F, H, t)
        assert np.max(np.abs(brace.entries - a.entries)) < 1e-14


def test_brace_self_pairing_vanishes_at_odd_order(rng):
    g = 3
    t = sample_siegel_point(g, rng)
    m = even_characteristics(g)[5]
    f = theta_constant_product(g, m).power(3)
    for k in (1, 3):
        assert pairing_brace(f, f, k, t).max_abs() < 1e-12


def test_bracket_is_twist_of_brace(rng):
    from theta_forge.multilinear import hodge_dual

    g = 3
    t = sample_siegel_point(g, rng)
    evens = even_characteristics(g)
    f = theta_constant_product(g, evens[0], evens[1])
    h = theta_constant_product(g, evens[2], evens[3])
    k = 2
    assert np.allclose(
        pairing_bracket(f, h, k, t).entries,
        hodge_dual(pairing_brace(f, h, k, t)).entries,
    )


def test_pairing_order_validation(tau_g2):
    f = theta_constant_product(2, even_characteristics(2)[0])
    with pytest.raises(DomainError):
        pairing_brace(f, f, 3, tau_g2)
    with pytest.raises(DomainError):
        pairing_bracket(f, f, 0, tau_g2)


def test_power_pairing_cofactor_identity(rng):
    for (g, k) in ((2, 1), (3, 2)):
        t = sample_siegel_point(g, rng)
        evens = even_characteristics(g)
        F = theta_constant_product(g, evens[0])
        H = theta_constant_product(g, evens[3])
        lhs = pairing_bracket(F.power(k), H.power(k), k, t)
        A = A_form(F, H, t).entries
        rhs = cofactor_tensor(A, g - k).scale(float(math.factorial(k)))
        scale = max(lhs.max_abs(), rhs.max_abs())
        assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-9 * scale


def test_permutation_expansion_identity(rng):
    g, k = 3, 2
    t = sample_siegel_point(g, rng)
    evens = even_characteristics(g)
    fs = [theta_constant_product(g, evens[i]) for i in (0, 1)]
    hs = [theta_constant_product(g, evens[i]) for i in (2, 3)]
    fprod = theta_constant_product(g, evens[0], evens[1])
    hprod = theta_constant_product(g, evens[2], evens[3])
    lhs = pairing_bracket(fprod, hprod, k, t)
    rhs = None
    for sigma in itertools.permutations(range(k)):
        mats = [A_form(fs[i], hs[sigma[i]], t) for i in range(k)]
        term = star_product(*mats)
        rhs = term if rhs is None else rhs + term
    scale = max(lhs.max_abs(), rhs.max_abs())
    assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-9 * scale


def test_scalar_pairing_determinant(rng):
    # top-order self-pairing of g-th powers reproduces det of the A-form
    g = 2
    t = sample_siegel_point(g, rng)
    evens = even_characteristics(g)
    F = theta_constant_product(g, evens[0])
    H = theta_constant_product(g, evens[1])
    A = A_form(F, H, t).entries
    total = pairing_brace(F.power(g), H.power(g), g, t).scalar()
    assert np.linalg.det(A) == pytest.approx(total / math.factorial(g), rel=1e-9)


# ---------------------------------------------------------------------------
# gradient wedge forms


def test_W_validation(tau_g2):
    odds = odd_characteristics(2)
    evens = even_characteristics(2)
    with pytest.raises(DomainError):
        W_of_N([], tau_g2)
    with pytest.raises(DomainError):
        W_of_N([odds[0], odds[0]], tau_g2)
    with pytest.raises(DomainError):
        W_of_N([evens[0]], tau_g2)


def test_W_matches_scaled_star(rng):
    for g in (2, 3):
        t = sample_siegel_point(g, rng)
        for k in (1, 2):
            ns = list(odd_characteristics(g)[:k])
            w = W_of_N(ns, t)
            assert w.level == g - k
            V = [theta_gradient(n, t) for n in ns]
            s = star_product(*[from_matrix(np.outer(v, v)) for v in V]).scale(
                float(np.pi) ** (-2 * k) * math.factorial(k)
            )
            assert np.max(np.abs(w.entries - s.entries)) < 1e-9 * max(
                w.max_abs(), 1e-30
            )


@pytest.mark.parametrize("g", (2, 3))
@pytest.mark.parametrize("k", (1, 2))
def test_W_of_N_is_exactly_symmetric(rng, g, k):
    # wedge_outer mirrors its upper triangle, so no entry may differ at all
    t = sample_siegel_point(g, rng)
    w = W_of_N(list(odd_characteristics(g)[:k]), t).entries
    assert w.shape == (math.comb(g, g - k),) * 2
    assert np.array_equal(w, w.T)


def test_A_star_is_the_star_of_second_order_A_forms(rng):
    g = 3
    t = sample_siegel_point(g, rng)
    pairs = [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1))]
    got = A_star(pairs, t)
    assert got.level == g - len(pairs)
    mats = [A_form(second_order_product(g, e), second_order_product(g, d), t) for e, d in pairs]
    assert np.array_equal(got.entries, star_product(*mats).entries)


def test_W_scalar_case_g1(rng):
    t = sample_siegel_point(1, rng)
    n = Characteristic((1,), (1,))
    w = W_of_N([n], t)
    v = theta_gradient(n, t)[0]
    assert w.scalar() == pytest.approx(v * v / np.pi**2)


def test_W_nonvanishing_at_generic_point(rng):
    t = sample_siegel_point(2, rng)
    assert W_of_N(list(odd_characteristics(2)[:2]), t).max_abs() > 1e-12


def test_W_jacobian_square_g2(rng):
    t = sample_siegel_point(2, rng)
    ns = list(odd_characteristics(2)[:2])
    w = W_of_N(ns, t)
    V = np.array([theta_gradient(n, t) for n in ns])
    jac = np.linalg.det(V)
    assert w.scalar() == pytest.approx(jac**2 / np.pi**4)


# ---------------------------------------------------------------------------
# group action on values


def test_rho_action_identity(rng):
    g = 3
    X = wedge_outer(rng.standard_normal((2, g)))
    out = rho_k_action(np.eye(g), X, 2)
    assert np.allclose(out.entries, X.entries)


def test_rho_action_wedge_recomputation(rng):
    for g in (2, 3):
        for k in range(1, g):
            M = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            V = rng.standard_normal((k, g)) + 1j * rng.standard_normal((k, g))
            X = wedge_outer(V)
            lhs = rho_k_action(M, X, k)
            rhs = wedge_outer(V @ M.T).scale(complex(np.linalg.det(M)) ** k)
            assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-8 * max(
                1.0, lhs.max_abs()
            )


def test_rho_action_top_order_matches_inverse_transpose_rule(rng):
    # complementary-index coordinates at k = g-1 reproduce the classical
    # det^{g+1} * inverse-transpose conjugation
    for g in (2, 3):
        M = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        Xe = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        lhs = rho_k_action(M, from_matrix(Xe), g - 1).entries
        Minv = np.linalg.inv(M)
        rhs = complex(np.linalg.det(M)) ** (g + 1) * (Minv.T @ Xe @ Minv)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


def test_rho_action_level_mismatch(rng):
    g = 3
    X = compound(np.eye(g), 1)
    with pytest.raises(DomainError):
        rho_k_action(np.eye(g), X, 3)
    # the action is defined at level g - k only, not in plain level-k coordinates
    with pytest.raises(DomainError):
        rho_k_action(np.eye(g), compound(rng.standard_normal((g, g)), 2), 2)


# ---------------------------------------------------------------------------
# transformation audits


def test_multiplier_spec_rejects_odd_power():
    with pytest.raises(DomainError):
        MultiplierSpec(kappa_power=3)


def test_audit_identity_element(rng):
    g = 2
    t = sample_siegel_point(g, rng)
    F = second_order_product(g, (0, 0))
    H = second_order_product(g, (1, 0))

    def fn(pt):
        return star_product(A_form(F, H, pt), A_form(F, H, pt))

    rep = audit_transformation(
        fn, SymplecticElement(np.eye(2 * g, dtype=int)), 2, MultiplierSpec(kappa_power=4), t
    )
    assert rep.residual == 0.0


def test_audit_rejects_wrong_group(rng):
    g = 2
    t = sample_siegel_point(g, rng)
    in_gamma2_only = None
    for seed in range(50):
        cand = conditioned_words("Gamma(2)", g, [t], 1, 1300 + seed)[0]
        if not np.all(np.array([int(b) % 4 == 0 for b in np.diag(cand.B)])):
            in_gamma2_only = cand
            break
        diag_c = [int(c) % 4 == 0 for c in np.diag(cand.C)]
        if not np.all(diag_c):
            in_gamma2_only = cand
            break
    if in_gamma2_only is None:
        pytest.skip("no strictly level-2 word sampled")

    def fn(pt):
        return star_product(
            A_form(second_order_product(g, (0, 0)), second_order_product(g, (1, 0)), pt)
        )

    with pytest.raises(DomainError):
        audit_transformation(fn, in_gamma2_only, 1, MultiplierSpec(kappa_power=2), t)


def test_audit_astar_words(rng):
    g = 3
    t = sample_siegel_point(g, rng)
    F = second_order_product(g, (0, 0, 0))
    H1 = second_order_product(g, (1, 0, 0))
    H2 = second_order_product(g, (0, 0, 1))

    def fn(pt):
        return star_product(A_form(F, H1, pt), A_form(F, H2, pt))

    for gamma in conditioned_words("Gamma(2,4)", g, [t], 3, 811):
        rep = audit_transformation(fn, gamma, 2, MultiplierSpec(kappa_power=4), t)
        assert rep.residual < 1e-9


def test_audit_gradient_wedge_with_phase_factors(rng):
    g = 2
    t = sample_siegel_point(g, rng)
    ns = list(odd_characteristics(g)[:2])

    def fn(pt):
        return W_of_N(ns, pt)

    for gamma in conditioned_words("Gamma(2)", g, [t], 3, 977):
        rep = audit_transformation(
            fn, gamma, 2, MultiplierSpec(kappa_power=4, phi_chars=tuple(ns)), t
        )
        assert rep.residual < 1e-9


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_round_trip():
    p = parse_theta_expression("T[0,1|1,0]*S[1,1]")
    assert p.g == 2
    assert p.label() == "T[0,1|1,0]*S[1,1]"
    single = parse_theta_expression(" S[0] ")
    assert single.g == 1


def test_parse_error_positions():
    with pytest.raises(ExpressionParseError) as err:
        parse_theta_expression("T[0|]")
    assert err.value.position == 4
    with pytest.raises(ExpressionParseError):
        parse_theta_expression("Q[0|0]")
    with pytest.raises(ExpressionParseError):
        parse_theta_expression("T[0|0]S[0]")
    with pytest.raises(ExpressionParseError):
        parse_theta_expression("")


def test_parse_rejects_odd_constant():
    with pytest.raises(DomainError):
        parse_theta_expression("T[1|1]")
