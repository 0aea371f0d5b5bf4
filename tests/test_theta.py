import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import box_sum, loop_choose_radius, loop_tail_bound
from theta_forge import theta as theta_module
from theta_forge._kernels import grid_sum
from theta_forge.errors import ConvergenceError, DomainError
from theta_forge.symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    act_on_tau,
    all_characteristics,
    odd_characteristics,
    sample_siegel_point,
)
from theta_forge.theta import (
    DEFAULT_POLICY,
    ThetaValue,
    TruncationPolicy,
    kappa_squared,
    min_im_eigenvalue,
    second_order_theta,
    theta_eval,
    theta_gradient,
    theta_tau_derivative,
)
from theta_forge.identities import conditioned_words

TAU_I = SiegelPoint(np.array([[1j]]))


def brute_theta_g1(m_prime, m_double, tau, z=0.0, radius=40):
    """Independent high-radius reference sum for genus 1."""
    total = 0.0 + 0j
    for n in range(-radius, radius + 1):
        p = n + m_prime / 2.0
        w = 0.5 * p * p * tau + p * (z + m_double / 2.0)
        total += np.exp(2j * np.pi * w)
    return total


# ---------------------------------------------------------------------------
# basic evaluation


def test_reference_value_at_i():
    got = theta_eval(Characteristic((0,), (0,)), TAU_I)
    want = sum(math.exp(-math.pi * n * n) for n in range(-40, 41))
    assert got.value == pytest.approx(want, abs=1e-13)
    assert got.value == pytest.approx(1.0864348112133080, abs=1e-12)
    assert got.est_tail <= DEFAULT_POLICY.target_tol


def test_matches_brute_oracle_g1(rng):
    tau = complex(sample_siegel_point(1, rng).tau[0, 0])
    z = 0.21 - 0.13j
    for mp in (0, 1):
        for mpp in (0, 1):
            got = theta_eval(Characteristic((mp,), (mpp,)), np.array([[tau]]), [z])
            want = brute_theta_g1(mp, mpp, tau, z)
            assert got.value == pytest.approx(want, abs=1e-11)


def test_odd_constants_vanish(rng):
    for g in (1, 2, 3):
        t = sample_siegel_point(g, rng)
        for n in odd_characteristics(g):
            assert abs(theta_eval(n, t).value) < 1e-12


def test_parity_in_z(rng):
    for g in (1, 2):
        t = sample_siegel_point(g, rng)
        z = rng.standard_normal(g) * 0.3 + 1j * rng.standard_normal(g) * 0.1
        for m in all_characteristics(g):
            a = theta_eval(m, t, z).value
            b = theta_eval(m, t, -z).value
            sgn = -1 if m.is_odd else 1
            assert a == pytest.approx(sgn * b, abs=1e-11)


def test_genus_mismatch_rejected(tau_g2):
    with pytest.raises(DomainError):
        theta_eval(Characteristic((0,), (0,)), tau_g2)


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_matches_finite_differences(rng):
    for g in (1, 2):
        t = sample_siegel_point(g, rng)
        n = odd_characteristics(g)[g - 1]
        v = theta_gradient(n, t)
        h = 1e-6
        for j in range(g):
            e = np.zeros(g)
            e[j] = h
            fd = (theta_eval(n, t, e).value - theta_eval(n, t, -e).value) / (2 * h)
            assert v[j] == pytest.approx(fd, abs=1e-7)


def test_gradient_rejects_even_characteristic(tau_g2):
    with pytest.raises(DomainError):
        theta_gradient(Characteristic((0, 0), (0, 0)), tau_g2)


def test_tau_derivative_matches_finite_differences(rng):
    g = 2
    t = sample_siegel_point(g, rng)
    z = rng.standard_normal(g) * 0.2
    m = Characteristic((0, 1), (1, 0))
    D = theta_tau_derivative(m, t, z)
    assert np.max(np.abs(D - D.T)) == 0.0
    h = 1e-5
    for a in range(g):
        for b in range(a, g):
            E = np.zeros((g, g))
            E[a, b] = E[b, a] = h
            fd = (
                theta_eval(m, SiegelPoint(t.tau + E), z).value
                - theta_eval(m, SiegelPoint(t.tau - E), z).value
            ) / (2 * h)
            # a symmetric step differentiates along the single symmetric
            # variable; the weighted matrix halves the off-diagonal
            want = fd if a == b else fd / 2
            assert D[a, b] == pytest.approx(want, abs=1e-6)


def test_heat_equation_specialization_g1(rng):
    # at genus 1 the weighted derivative is the z-Hessian over 4*pi*i
    t = sample_siegel_point(1, rng)
    m = Characteristic((0,), (1,))
    D = theta_tau_derivative(m, t)[0, 0]
    h = 1e-4
    f0 = theta_eval(m, t).value
    fp = theta_eval(m, t, [h]).value
    fm = theta_eval(m, t, [-h]).value
    hess = (fp - 2 * f0 + fm) / h**2
    assert D == pytest.approx(hess / (4j * np.pi), abs=1e-6)


# ---------------------------------------------------------------------------
# second-order constants


def test_second_order_is_doubled_series(rng):
    t = sample_siegel_point(1, rng)
    got = second_order_theta((0,), t).value
    want = theta_eval(Characteristic((0,), (0,)), SiegelPoint(2 * t.tau)).value
    assert got == pytest.approx(want)


def test_second_order_even_in_z(rng):
    t = sample_siegel_point(2, rng)
    z = rng.standard_normal(2) * 0.2 + 1j * rng.standard_normal(2) * 0.1
    for eps in itertools.product((0, 1), repeat=2):
        a = second_order_theta(eps, t, z).value
        b = second_order_theta(eps, t, -z).value
        assert a == pytest.approx(b, abs=1e-11)


def test_second_order_chain_rule_factor(rng):
    t = sample_siegel_point(1, rng)
    d_outer = second_order_theta((1,), t, want_tau_derivative=True).tau_derivative
    d_inner = theta_tau_derivative(Characteristic((1,), (0,)), SiegelPoint(2 * t.tau))
    assert np.allclose(d_outer, 2 * d_inner)


def test_riemann_addition_g1(rng):
    t = sample_siegel_point(1, rng)
    th0 = second_order_theta((0,), t).value
    sq00 = theta_eval(Characteristic((0,), (0,)), t).value ** 2
    sq01 = theta_eval(Characteristic((0,), (1,)), t).value ** 2
    assert th0**2 == pytest.approx((sq00 + sq01) / 2, abs=1e-10)


def test_quasi_periodicity_sign(rng):
    # shifting the characteristic by two flips the sign by the pairing parity
    from theta_forge.identities import _theta_unnormalized

    g = 2
    t = sample_siegel_point(g, rng)
    z = rng.standard_normal(g) * 0.2
    m = Characteristic((1, 0), (1, 1))
    base = theta_eval(m, t, z).value
    shifted = _theta_unnormalized((1, 2), (1, 1), t, z, None)  # m' + 2*(0,1)
    assert shifted == pytest.approx(base, abs=1e-10)
    shifted2 = _theta_unnormalized((1, 0), (3, 1), t, z, None)  # m'' + 2*(1,0)
    assert shifted2 == pytest.approx(-base, abs=1e-10)


# ---------------------------------------------------------------------------
# truncation policy behavior


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(target_tol=-1.0)
    with pytest.raises(DomainError):
        TruncationPolicy(target_tol=float("nan"))
    # an infinite goal certifies nothing
    with pytest.raises(DomainError):
        TruncationPolicy(target_tol=float("inf"))


def test_policy_tolerance_floor():
    eps = np.finfo(float).eps
    TruncationPolicy(target_tol=16 * eps)
    with pytest.raises(DomainError):
        TruncationPolicy(target_tol=15 * eps)
    with pytest.raises(DomainError):
        TruncationPolicy(target_tol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(0.004, 10.0),
    b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    m_prime=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    weighted=st.booleans(),
    tol=st.floats(16 * np.finfo(float).eps, 1e-3),
)
@example(lam=0.004, b=0.0, m_prime=(0,), weighted=False, tol=1e-12)  # envelope too flat
@example(lam=0.02, b=0.0, m_prime=(0, 1, 0, 1), weighted=True,
         tol=1e-14)  # no radius <= 24 reaches the goal
def test_radius_selection_matches_loop_oracle(lam, b, m_prime, weighted, tol):
    policy = TruncationPolicy(target_tol=tol)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = loop_choose_radius(lam, b, m_prime, policy, weighted)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                theta_module._choose_radius(lam, b, m_prime, policy, weighted)
            assert ("too flat" in str(got.value)) == ("too flat" in str(exc))
            return
        radius, bound = theta_module._choose_radius(lam, b, m_prime, policy, weighted)
        bounds = theta_module._tail_bound(lam, b, m_prime, weighted)
        loop_bounds = [loop_tail_bound(lam, b, m_prime, r, weighted) for r in range(27)]
    assert radius == want[0]
    assert bound == pytest.approx(want[1], rel=1e-12, abs=0.0)
    assert len(bounds) == 27
    assert np.allclose(bounds, loop_bounds, rtol=1e-12, atol=0.0)


def _random_point(g, lam, seed):
    """tau with lambda_min(Im tau) = lam and a random eigenbasis."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    evals = lam + np.concatenate([[0.0], rng.uniform(0.05, 1.5, g - 1)])
    X = rng.uniform(-0.5, 0.5, (g, g))
    return (X + X.T) / 2 + 1j * (Q @ np.diag(evals) @ Q.T), rng


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 3),
    lam=st.floats(0.05, 2.0),
    im_frac=st.floats(0.0, 1.2),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
    slots=st.sampled_from(["value", "gradient", "tau_derivative"]),
)
def test_est_tail_bounds_the_truncation_error(g, lam, im_frac, seed, tol, slots):
    # |S(r) - S(R)| <= est_tail + rounding, with S(R) a box sum at radius R
    # far past any radius the evaluator picks (<= 26)
    tau, rng = _random_point(g, lam, seed)
    chars = all_characteristics(g)
    m = chars[int(rng.integers(len(chars)))]
    # |Im z| reaches past where radius 24 stops clearing the goal
    b_edge = max(0.0, (np.pi * lam * 24**2 - 30.0) / (2 * np.pi * 24))
    direction = rng.standard_normal(g)
    z = rng.uniform(-0.5, 0.5, g) + 1j * im_frac * b_edge * direction / np.linalg.norm(direction)
    policy = TruncationPolicy(target_tol=tol)
    want_grad = slots != "value"
    want_dtau = slots == "tau_derivative"
    try:
        got = theta_eval(m, tau, z, policy, want_gradient=want_grad,
                         want_tau_derivative=want_dtau)
    except ConvergenceError:
        assume(False)
    ref, abs_sums = box_sum(tau, z, m.m_prime, m.m_double_prime, 40 if g < 3 else 30)
    allowance = 64 * np.finfo(float).eps
    assert abs(got.value - ref[0]) <= got.est_tail + allowance * abs_sums[0]
    if want_grad:
        err = np.abs(got.gradient_z - ref[1])
        assert np.all(err <= got.est_tail + allowance * abs_sums[1])
    if want_dtau:
        err = np.abs(got.tau_derivative - ref[2])
        assert np.all(err <= got.est_tail + allowance * abs_sums[2])


@pytest.mark.parametrize(
    "tau, z",
    [
        (1j * np.eye(1), [30j]),  # the envelope total overflows to inf
        (10j * np.eye(2), [70j, 70j]),  # tail 0 times total inf gives nan
        (0.5j * np.eye(3), [1e3j, 0, 0]),  # the envelope edge overflows
        (1.6j * np.eye(1), [-19.3j]),  # the bound clears, the sum overflows
    ],
)
def test_overflowing_input_raises_only_convergence_error(tau, z):
    theta_module.clear_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            theta_eval(Characteristic((0,) * len(z), (0,) * len(z)), tau, z,
                       want_gradient=True)


def test_adaptive_refinement_consistency(rng):
    t = sample_siegel_point(2, rng)
    m = Characteristic((0, 1), (1, 1))
    loose = theta_eval(m, t, policy=TruncationPolicy(target_tol=1e-8))
    tight = theta_eval(m, t, policy=TruncationPolicy(target_tol=1e-14))
    assert loose.value == pytest.approx(tight.value, abs=1e-9)
    assert loose.est_tail <= 1e-8


def test_convergence_error_on_flat_point():
    flat = SiegelPoint(0.004j * np.eye(1) + np.zeros((1, 1)))
    with pytest.raises(ConvergenceError):
        theta_eval(Characteristic((0,), (0,)), flat)


def test_min_im_eigenvalue(rng):
    t = sample_siegel_point(3, rng)
    assert min_im_eigenvalue(t.tau) >= 0.5


# ---------------------------------------------------------------------------
# the grid kernel against the point-list oracle


@pytest.mark.parametrize("g, radius", [(1, 6), (2, 5), (3, 3), (4, 1), (4, 2)])
def test_grid_sum_matches_oracle(g, radius, rng):
    # the full grid at radius + 2 and its core at radius, against direct box
    # sums over the same points, to 64 eps of sum |weight * term|
    allowance = 64 * np.finfo(float).eps
    n = np.arange(-(radius + 2), radius + 3, dtype=float)
    for _ in range(4):
        tau = sample_siegel_point(g, rng).tau
        m_prime = tuple(int(u) for u in rng.integers(0, 2, g))
        m_double = tuple(int(u) for u in rng.integers(0, 2, g))
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-1.0, 1.0, g)
        y = z + np.asarray(m_double) / 2.0
        full, core = grid_sum([n + u / 2.0 for u in m_prime], tau, y, 2, True, True)
        for got, r in ((full, radius + 2), (core, radius)):
            ref, abs_sums = box_sum(tau, z, m_prime, m_double, r)
            for slot in range(3):
                err = np.abs(got[slot] - ref[slot])
                assert np.all(err <= allowance * abs_sums[slot])
        assert np.array_equal(full[2], full[2].T)
    _, no_core = grid_sum([n] * g, tau, y)
    assert no_core is None


def test_evaluation_is_deterministic(rng):
    from theta_forge.theta import clear_caches

    t = sample_siegel_point(2, rng)
    m = Characteristic((1, 1), (0, 0))
    a = theta_eval(m, t, want_tau_derivative=True)
    caches = [getattr(theta_module, name) for name in
              ("_one_dim_sums", "_tail_bound", "_eval_cached")]
    assert all(c.cache_info().currsize > 0 for c in caches)
    clear_caches()
    assert all(c.cache_info().currsize == 0 for c in caches)
    b = theta_eval(m, t, want_tau_derivative=True)
    assert a.value == b.value
    assert np.array_equal(a.tau_derivative, b.tau_derivative)


# ---------------------------------------------------------------------------
# squared multiplier


def test_kappa_identity_is_one(tau_g2):
    assert kappa_squared(SymplecticElement.identity(2), tau_g2) == pytest.approx(1.0)


def test_kappa_requires_level_two(tau_g1):
    odd_translation = SymplecticElement.from_blocks([[1]], [[1]], [[0]], [[1]])
    with pytest.raises(DomainError):
        kappa_squared(odd_translation, tau_g1)


def test_kappa_fourth_root_on_level_24(rng):
    for g in (1, 2):
        t = sample_siegel_point(g, rng)
        for gamma in conditioned_words("Gamma(2,4)", g, [t], 3, 60):
            k2 = kappa_squared(gamma, t)
            assert abs(k2**2 - 1.0) < 1e-9


def test_kappa_plus_minus_one_on_deep_level(rng):
    for g in (1, 2):
        t = sample_siegel_point(g, rng)
        gamma = conditioned_words("Gamma(4,8)", g, [t], 1, 9, length=4)[0]
        k2 = kappa_squared(gamma, t)
        assert min(abs(k2 - 1.0), abs(k2 + 1.0)) < 1e-9


def test_kappa_reaches_minus_one(rng):
    t = sample_siegel_point(2, rng)
    values = set()
    for gamma in conditioned_words("Gamma(2,4)", 2, [t], 12, 7):
        values.add(int(np.sign(kappa_squared(gamma, t).real)))
    assert values == {1, -1}


def test_kappa_second_order_compatibility(rng):
    # the doubled-argument constants transform with the same square
    for g in (1, 2):
        t = sample_siegel_point(g, rng)
        gamma = conditioned_words("Gamma(2,4)", g, [t], 1, 21)[0]
        k2 = kappa_squared(gamma, t)
        moved = act_on_tau(gamma, t)
        den = np.linalg.det(gamma.C.astype(float) @ t.tau + gamma.D.astype(float))
        for eps in itertools.product((0, 1), repeat=g):
            base = second_order_theta(eps, t).value
            if abs(base) < 1e-6:
                continue
            ratio = second_order_theta(eps, moved).value ** 2 / (den * base**2)
            assert ratio == pytest.approx(k2, abs=1e-8)


def test_theta_value_fields(tau_g1):
    tv = theta_eval(Characteristic((0,), (0,)), tau_g1, want_gradient=True)
    assert isinstance(tv, ThetaValue)
    assert tv.gradient_z is not None and tv.tau_derivative is None
