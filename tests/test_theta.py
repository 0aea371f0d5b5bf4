import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    array_choose_boxes,
    box_sum,
    loop_axis_bound,
    loop_choose_box,
    loop_choose_radius,
    loop_one_dim_sums,
    mp_theta,
)
from theta_forge import _kernels as kernels_module
from theta_forge import theta as theta_module
from theta_forge._kernels import class_sums
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
    theta_stencil,
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
    D = theta_eval(m, t, z, want_tau_derivative=True).tau_derivative
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
    D = theta_eval(m, t, want_tau_derivative=True).tau_derivative[0, 0]
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
    inner = theta_eval(Characteristic((1,), (0,)), SiegelPoint(2 * t.tau), want_tau_derivative=True)
    d_inner = inner.tau_derivative
    assert np.allclose(d_outer, 2 * d_inner)


def test_riemann_addition_g1(rng):
    t = sample_siegel_point(1, rng)
    th0 = second_order_theta((0,), t).value
    sq00 = theta_eval(Characteristic((0,), (0,)), t).value ** 2
    sq01 = theta_eval(Characteristic((0,), (1,)), t).value ** 2
    assert th0**2 == pytest.approx((sq00 + sq01) / 2, abs=1e-10)


def test_quasi_periodicity_sign(rng):
    # shifting the characteristic by two flips the sign by the pairing parity
    from theta_forge.theta import theta_unnormalized

    g = 2
    t = sample_siegel_point(g, rng)
    z = rng.standard_normal(g) * 0.2
    m = Characteristic((1, 0), (1, 1))
    base = theta_eval(m, t, z).value
    shifted = theta_unnormalized((1, 2), (1, 1), t, z, None)  # m' + 2*(0,1)
    assert shifted == pytest.approx(base, abs=1e-10)
    shifted2 = theta_unnormalized((1, 0), (3, 1), t, z, None)  # m'' + 2*(1,0)
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


def _choose_box(lam, mus, b, m_prime, policy, weighted):
    """The widths and est_tail of the box of m', picked from the boxes of
    every m' of its genus as the memo computes them, raising as an
    evaluation of m' does."""
    g = len(m_prime)
    boxes = theta_module._choose_boxes(lam, mus, b, policy, weighted)
    box = boxes[list(itertools.product((0, 1), repeat=g)).index(tuple(m_prime))]
    if not box[:g].all():
        raise ConvergenceError("no width <= 24 reaches the goal")
    return tuple(int(w) for w in box[:g]), float(box[g])


@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(0.004, 10.0),
    spread=st.lists(st.floats(1.0, 30.0), min_size=4, max_size=4),
    b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    m_prime=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    weighted=st.booleans(),
    tol=st.floats(16 * np.finfo(float).eps, 1e-3),
)
@example(lam=0.004, spread=[1.0] * 4, b=0.0, m_prime=(0,), weighted=False,
         tol=1e-12)  # envelope too flat
@example(lam=0.02, spread=[1.0] * 4, b=0.0, m_prime=(0, 1, 0, 1), weighted=True,
         tol=1e-14)  # no width <= 24 reaches the goal
def test_box_widths_match_loop_oracle(lam, spread, b, m_prime, weighted, tol):
    # the first, so the least, width of every axis whose bound clears the goal
    mus = tuple(lam * s for s in spread[: len(m_prime)])
    policy = TruncationPolicy(target_tol=tol)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = loop_choose_box(lam, mus, b, m_prime, policy, weighted)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                _choose_box(lam, mus, b, m_prime, policy, weighted)
            assert ("too flat" in str(got.value)) == ("too flat" in str(exc))
            return
        widths, est_tail = _choose_box(lam, mus, b, m_prime, policy, weighted)
    assert widths == want[0]
    assert est_tail == pytest.approx(want[1], rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(
    g=st.integers(1, 4),
    lam=st.floats(0.004, 10.0),
    spread=st.lists(st.floats(1.0, 30.0), min_size=4, max_size=4),
    b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    weighted=st.booleans(),
    tol=st.floats(16 * np.finfo(float).eps, 1e-3),
)
@example(g=1, lam=0.004, spread=[1.0] * 4, b=0.0, weighted=False,
         tol=1e-12)  # envelope too flat
@example(g=4, lam=0.02, spread=[1.0] * 4, b=0.0, weighted=True,
         tol=1e-14)  # no width <= 24 reaches the goal
@example(g=2, lam=0.007, spread=[20.0] * 4, b=0.0, weighted=True,
         tol=1e-6)  # t = 0 usable, the flatter splits skipped
def test_boxes_match_array_oracle_bit_for_bit(g, lam, spread, b, weighted, tol):
    # the merged passes of the box search give the boxes of the array code
    # they replaced, bit for bit: widths, est_tail and envelope of every m',
    # and the same refusal where every split is too flat
    mus = tuple(lam * s for s in spread[:g])
    policy = TruncationPolicy(target_tol=tol)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = array_choose_boxes(lam, mus, b, policy, weighted)
        except ConvergenceError:
            with pytest.raises(ConvergenceError, match="too flat"):
                theta_module._choose_boxes(lam, mus, b, policy, weighted)
            return
    got = theta_module._choose_boxes(lam, mus, b, policy, weighted)
    assert got.shape == (2**g, g + 2) and not got.flags.writeable
    assert np.array_equal(got, want, equal_nan=True)


def test_box_refusals_match_array_oracle():
    # too flat: both raise; no width <= 24 on some axis: both give width 0
    with pytest.raises(ConvergenceError, match="too flat"):
        theta_module._choose_boxes(0.004, (0.004,), 0.0, DEFAULT_POLICY, False)
    with pytest.raises(ConvergenceError, match="too flat"):
        array_choose_boxes(0.004, (0.004,), 0.0, DEFAULT_POLICY, False)
    policy = TruncationPolicy(target_tol=1e-14)
    got = theta_module._choose_boxes(0.02, (0.02,) * 4, 0.0, policy, True)
    assert (got[:, :4] == 0).any()
    assert np.array_equal(got, array_choose_boxes(0.02, (0.02,) * 4, 0.0, policy, True))


def test_box_certifies_where_the_cube_cannot_reach():
    # lambda_min = 0.017: no cube radius <= 24 clears the goal, but the
    # flatter axis alone needs width 24 and the other 12
    re = 0.1 * np.array([[1.0, 0.5], [0.5, -1.0]])
    im = np.array([[0.09495481491519209, -0.21355816331929459],
                   [-0.21355816331929459, 0.6020451850848079]])
    lam, mus = theta_module._rates(im)
    with pytest.raises(ConvergenceError):
        loop_choose_radius(lam, 0.0, (0, 0), DEFAULT_POLICY, False)
    assert _choose_box(lam, mus, 0.0, (0, 0), DEFAULT_POLICY, False)[0] == (24, 12)
    got = theta_eval(Characteristic((0, 0), (1, 0)), re + 1j * im)
    ref, abs_sums = box_sum(re + 1j * im, np.zeros(2), (0, 0), (1, 0), 40)
    assert abs(got.value - ref[0]) <= got.est_tail + 64 * np.finfo(float).eps * abs_sums[0]


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.004, 10.0),
    spread=st.lists(st.floats(1.0, 30.0), min_size=4, max_size=4),
    b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    m_prime=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    weighted=st.booleans(),
    radius=st.integers(0, 25),
)
@example(lam=0.004, spread=[1.0] * 4, b=0.0, m_prime=(0,), weighted=False,
         radius=3)  # every split too flat
@example(lam=0.007, spread=[20.0] * 4, b=0.0, m_prime=(0, 1), weighted=True,
         radius=5)  # t = 0 usable, the flatter splits skipped
def test_axis_bounds_match_loop_oracle(lam, spread, b, m_prime, weighted, radius):
    mus = tuple(lam * s for s in spread[: len(m_prime)])
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = [loop_axis_bound(lam, mus, b, m_prime, i, radius, weighted)
                    for i in range(len(m_prime))]
        except ConvergenceError:
            with pytest.raises(ConvergenceError, match="too flat"):
                theta_module._axis_bounds(lam, mus, b, m_prime, weighted)
            return
        bounds, envelope = theta_module._axis_bounds(lam, mus, b, m_prime, weighted)
    assert bounds.shape == (len(m_prime), 26)
    assert not bounds.flags.writeable
    for got, w in zip(bounds[:, radius], want):
        assert got == pytest.approx(w, rel=1e-12, abs=0.0)
    # the rounding envelope: the product of the isotropic totals
    totals = [loop_one_dim_sums(lam, b, u == 1, radius, weighted)[0] for u in m_prime]
    assert envelope == pytest.approx(math.prod(totals), rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 3),
    lam=st.floats(0.3, 3.0),
    ratio=st.floats(1.0, 30.0),
    b=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    seed=st.integers(0, 2**32 - 1),
    weighted=st.booleans(),
    tol=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
)
def test_est_tail_bounds_the_envelope_outside_the_box(g, lam, ratio, b, seed, weighted, tol):
    # the envelope (|term| times every derivative weight) summed directly
    # over the points of a far larger cube outside the summed box: no
    # rounding of the series enters, only the mathematics of the bound
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    Y = Q @ np.diag(lam * np.geomspace(1.0, ratio, g)) @ Q.T
    Y = (Y + Y.T) / 2
    m_prime = tuple(int(u) for u in rng.integers(0, 2, g))
    policy = TruncationPolicy(target_tol=tol)
    try:
        widths, est_tail = _choose_box(
            *theta_module._rates(Y), b, m_prime, policy, weighted)
    except ConvergenceError:
        assume(False)
    wide = np.array(widths) + 1
    n = np.arange(-(wide.max() + 8), wide.max() + 9, dtype=float)
    P = np.stack([a.ravel() for a in np.meshgrid(*([n] * g), indexing="ij")], axis=1)
    P = P + np.asarray(m_prime) / 2.0
    P = P[(np.abs(P) > wide).any(axis=1)]
    exponent = -np.pi * np.einsum("na,ab,nb->n", P, Y, P) + 2 * np.pi * b * np.abs(P).sum(1)
    env = np.exp(exponent)
    if weighted:
        env = env * np.prod(2.0 + 2.0 * np.pi * P * P, axis=1)
    # at g = 1 the bound is this very sum with its exponents rounded
    # another way: a term moves by up to a few eps times its |exponent|
    rounding = 64 * np.finfo(float).eps * np.sum(env * (1.0 + np.abs(exponent)))
    assert env.sum() <= est_tail + rounding


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_box_never_holds_more_points_than_the_cube(g):
    # over many draws the box sums no more points than the cube at the first
    # radius whose isotropic bound clears target_tol / 20, though one draw
    # alone may (one in 1,280 at g = 3, by a factor 1.2)
    def points(widths, m_prime):
        return math.prod(len(x) for x in theta_module._box_axes(widths, m_prime))

    rng = np.random.default_rng(7)
    boxes, cubes = [], []
    for _ in range(40):
        tau = sample_siegel_point(g, rng).tau
        for Y in (tau.imag, 2 * tau.imag):
            rates = theta_module._rates(Y)
            for m_prime in itertools.product((0, 1), repeat=g):
                for weighted in (False, True):
                    radius, _ = loop_choose_radius(rates[0], 0.0, m_prime, DEFAULT_POLICY,
                                                   weighted)
                    widths, _ = _choose_box(
                        *rates, 0.0, m_prime, DEFAULT_POLICY, weighted)
                    boxes.append(points([w + 1 for w in widths], m_prime))
                    cubes.append(points([radius + 1] * g, m_prime))
    assert sum(boxes) <= sum(cubes)
    if g >= 3:
        assert np.median(boxes) < np.median(cubes)


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
    _assert_est_tail_bounds_the_truncation_error(g, m, tau, z, tol, slots)


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(1, 3),
    lam=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
    slots=st.sampled_from(["value", "gradient", "tau_derivative"]),
)
def test_est_tail_bounds_the_truncation_error_at_z_zero(g, lam, seed, tol, slots):
    # the check above at z = 0, where the paper's constants live and the
    # kernel exponentiates half of each box and mirrors the rest
    tau, rng = _random_point(g, lam, seed)
    chars = all_characteristics(g)
    m = chars[int(rng.integers(len(chars)))]
    _assert_est_tail_bounds_the_truncation_error(g, m, tau, np.zeros(g), tol, slots)


def _assert_est_tail_bounds_the_truncation_error(g, m, tau, z, tol, slots):
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


@pytest.mark.parametrize("lam, seed, im_frac, tol", [
    (0.3, 1, 0.0, 1e-6), (0.45, 2, 0.3, 1e-10), (0.7, 3, 0.5, 1e-12), (1.0, 4, 0.8, 1e-8),
])
def test_est_tail_bounds_the_truncation_error_at_genus_4(lam, seed, im_frac, tol):
    # the check above at fixed genus-4 draws, against a box sum at radius 10,
    # at least 3 points past every box the evaluator sums here
    tau, rng = _random_point(4, lam, seed)
    chars = all_characteristics(4)
    m = chars[int(rng.integers(len(chars)))]
    z = rng.uniform(-0.5, 0.5, 4) + 1j * im_frac * rng.uniform(-0.5, 0.5, 4)
    policy = TruncationPolicy(target_tol=tol)
    plain = theta_eval(m, tau, z, policy)
    weighted = theta_eval(m, tau, z, policy, want_gradient=True, want_tau_derivative=True)
    ref, abs_sums = box_sum(tau, z, m.m_prime, m.m_double_prime, 10)
    allowance = 64 * np.finfo(float).eps
    for got in (plain, weighted):
        assert abs(got.value - ref[0]) <= got.est_tail + allowance * abs_sums[0]
    for got, want, scale in zip((weighted.gradient_z, weighted.tau_derivative), ref[1:],
                                abs_sums[1:]):
        assert np.all(np.abs(got - want) <= weighted.est_tail + allowance * scale)


def _hex_matrix(rows):
    return np.array([[float.fromhex(x) for x in row] for row in rows])


# the base point that ``verify --g 3 --seed 898`` draws for main_theorem,
# where that check missed its tolerance while it summed W-forms
SEED_898_TAU = _hex_matrix((
    ("-0x1.0637b4cd60ee0p-4", "-0x1.88c456d2e5b86p-3", "0x1.c833d7cc376d0p-3"),
    ("-0x1.88c456d2e5b86p-3", "0x1.533205998adb0p-3", "0x1.452f64f334780p-6"),
    ("0x1.c833d7cc376d0p-3", "0x1.452f64f334780p-6", "-0x1.427938b1fe824p-2"),
)) + 1j * _hex_matrix((
    ("0x1.64703d7794078p-1", "0x1.b815f49fc65bcp-4", "-0x1.618d7e9119922p-4"),
    ("0x1.b815f49fc65bcp-4", "0x1.43a8605960cd2p+2", "-0x1.32d6a16748776p-3"),
    ("-0x1.618d7e9119922p-4", "-0x1.32d6a16748776p-3", "0x1.4decd3f4796b7p-1"),
))


@pytest.mark.parametrize(
    "tau, z, chars",
    [
        (np.array([[0.31 + 0.12j]]), [0.1 - 0.05j], all_characteristics(1)),
        (np.array([[0.21 + 0.9j, -0.3 + 0.35j], [-0.3 + 0.35j, 0.4 + 0.7j]]),
         [0.12 - 0.07j, -0.31 + 0.04j], all_characteristics(2)),
        # one even and one odd characteristic: each costs about 0.5 s at genus 3
        (SEED_898_TAU, None, [Characteristic((0, 1, 0), (1, 1, 0)),
                              Characteristic((1, 0, 1), (0, 1, 1))]),
        # at z = 0 the characteristics of one m' come from one class sum
        (np.array([[0.21 + 0.9j, -0.3 + 0.35j], [-0.3 + 0.35j, 0.4 + 0.7j]]),
         None, all_characteristics(2)),
    ],
)
def test_theta_matches_30_digit_reference(tau, z, chars):
    # against an mpmath box sum at 30 digits, to est_tail plus 64 eps of
    # sum |weight * term| * (1 + |exponent|)
    allowance = 64 * np.finfo(float).eps
    for m in chars:
        got = theta_eval(m, tau, z, want_gradient=True, want_tau_derivative=True)
        ref, scales = mp_theta(tau, m.m_prime, m.m_double_prime, z)
        for got_slot, ref_slot, scale in zip(
                (got.value, got.gradient_z, got.tau_derivative), ref, scales):
            assert np.all(np.abs(got_slot - ref_slot) <= got.est_tail + allowance * scale)


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


@pytest.mark.parametrize("g", [1, 2, 3])
def test_period_reduction_is_exact(g, rng):
    # theta[m](tau + 2S, z + 2k) = i^(m' S m') theta[m](tau, z) for integer
    # symmetric S and integer k: with Re tau and Re z in eighths inside
    # (-1, 1) and entries of S and k near 1e13, tau + 2S and z + 2k are exact
    # doubles that reduce back to (tau, z) bit for bit, so the value, the
    # gradient and the tau-derivative are the phase times those at (tau, z)
    # exactly; z = 0 covers the memoised path
    for _ in range(2):
        X = rng.integers(-7, 8, (g, g)) / 8.0
        tau = np.triu(X) + np.triu(X, 1).T + 1j * sample_siegel_point(g, rng).tau.imag
        S = rng.integers(10**13 - 50, 10**13 + 50, (g, g)) * rng.choice([-1, 1], (g, g))
        S = np.triu(S) + np.triu(S, 1).T
        k = rng.integers(10**13 - 50, 10**13 + 50, g) * rng.choice([-1, 1], g)
        for z in (np.zeros(g), rng.integers(-7, 8, g) / 8.0 + 0.25j * rng.uniform(-1, 1, g)):
            for m in all_characteristics(g):
                base, moved = (theta_eval(m, t, w, want_gradient=True, want_tau_derivative=True)
                               for t, w in ((tau, z), (tau + 2 * S, z + 2 * k)))
                phase = 1j ** (int(np.dot(m.m_prime, S @ m.m_prime)) % 4)
                assert moved.value == phase * base.value
                assert np.array_equal(moved.gradient_z, phase * base.gradient_z)
                assert np.array_equal(moved.tau_derivative, phase * base.tau_derivative)


# ---------------------------------------------------------------------------
# the lattice kernel against the point-list oracle


@pytest.mark.parametrize("g, radius", [(1, 6), (2, 5), (3, 3), (4, 1), (4, 2)])
def test_class_sums_matches_oracle(g, radius, rng):
    # the full grid at radius + 1 and its core at radius, against direct box
    # sums over the same points, to 64 eps of sum |weight * term|: the value
    # from the one-row fold and every slot from row m'' = 0 of the all-row
    # fold at the same y; m' runs over 0-3, so the unreduced, asymmetric axes
    # of theta_unnormalized are covered
    allowance = 64 * np.finfo(float).eps
    n = np.arange(-(radius + 1), radius + 2, dtype=float)
    for _ in range(4):
        tau = sample_siegel_point(g, rng).tau
        m_prime = tuple(int(u) for u in rng.integers(0, 4, g))
        m_double = tuple(int(u) for u in rng.integers(0, 2, g))
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-1.0, 1.0, g)
        y = z + np.asarray(m_double) / 2.0
        axes = [n + u / 2.0 for u in m_prime]
        values = [part[0, 0] for part in class_sums(axes, tau, y, one_row=True)]
        rows = [row[0] for row in class_sums(axes, tau, y, True, True)]
        for value, row, r in zip(values, rows, (radius + 1, radius)):
            ref, abs_sums = box_sum(tau, z, m_prime, m_double, r)
            for got, slot in ((value, 0), (row[0], 0), (row[1 : g + 1], 1),
                              (row[g + 1 :].reshape(g, g), 2)):
                err = np.abs(got - ref[slot])
                assert np.all(err <= allowance * abs_sums[slot])
        dtau = rows[0][g + 1 :].reshape(g, g)
        assert np.array_equal(dtau, dtau.T)


def _full_grid_terms(axes, tau, y):
    # the full build of _kernels._grid_terms: every exponent accumulated in
    # its order, the p y pass included, and one np.exp over the whole grid
    g, on_axis = len(axes), kernels_module._on_axis
    tau, y = np.asarray(tau, dtype=complex), np.asarray(y, dtype=complex)
    lin = 0.0
    for a, xa in enumerate(axes):
        lin = lin + on_axis(xa * y[a], a, g)
    grid = np.zeros(tuple(map(len, axes)), dtype=complex)
    for a, xa in enumerate(axes):
        row = xa[:, None] * tau[a]
        for b, xb in enumerate(axes):
            grid += on_axis(row[:, b], a, g) * on_axis(xb, b, g)
    grid *= 0.5
    grid += lin
    grid *= 2j * np.pi
    return np.exp(grid, out=grid)


@pytest.mark.parametrize("g, widths", [(1, (2, 9)), (2, (2, 6)), (3, (1, 4)), (4, (1, 3))])
def test_half_grid_at_y_zero_is_the_full_grid_bit_for_bit(g, widths, rng, monkeypatch):
    # at y = 0 over the boxes of _box_axes only the slices from n_0 // 2 on
    # axis 0 are exponentiated and the rest mirrored: every term equals the
    # full build's bit for bit, also at |Re tau| up to 1e3, where one ulp of
    # the exponent moves a term by hundreds of eps; at y != 0, and over the
    # asymmetric axes of theta_unnormalized (m' = 2, 3), the whole grid is
    # exponentiated
    sizes, exp = [], np.exp
    monkeypatch.setattr(kernels_module.np, "exp",
                        lambda x, out=None: sizes.append(x.size) or exp(x, out=out))

    def assert_built(axes, tau, y, exponentiated):
        ref = _full_grid_terms(axes, tau, y)
        sizes.clear()
        got = kernels_module._grid_terms(axes, tau, y)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert sizes == [exponentiated * got.size // len(axes[0])]

    for scale in (1.0, 1e3):
        X = rng.uniform(-1.0, 1.0, (g, g))
        tau = sample_siegel_point(g, rng).tau + scale * (X + X.T) / 2
        for width in widths:
            for m_prime in itertools.product((0, 1), repeat=g):
                axes = theta_module._box_axes([width] * g, m_prime)
                n = len(axes[0])
                assert_built(axes, tau, np.zeros(g), n - n // 2)
                assert_built(axes, tau, rng.uniform(-0.5, 0.5, g), n)
                assert_built(axes, tau, 0.3j * np.ones(g), n)
            for u in (2, 3):
                axes = [np.arange(-width, width + 1, dtype=float) + u / 2.0] * g
                assert_built(axes, tau, np.zeros(g), len(axes[0]))


def test_one_box_entry_per_im_tau(rng, monkeypatch):
    # tau and tau + hE (E real symmetric) share Im tau, so they share one
    # certified box and the rates are computed once
    calls = []
    rates = theta_module._rates
    monkeypatch.setattr(theta_module, "_rates", lambda Y: calls.append(Y) or rates(Y))
    theta_module.clear_caches()
    t = sample_siegel_point(3, rng)
    E = np.zeros((3, 3))
    E[0, 2] = E[2, 0] = 1.0
    m = Characteristic((0, 1, 1), (1, 0, 1))
    for point in (t, SiegelPoint(t.tau + 1e-3 * E), SiegelPoint(t.tau - 1e-3 * E)):
        theta_eval(m, point, want_tau_derivative=True)
    assert theta_module._eval_cached.cache_info().misses == 3
    info = theta_module._certified_box.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert len(calls) == 1


def test_one_box_entry_per_weighting_at_one_tau(rng, monkeypatch):
    # every characteristic at one tau, with and without derivative weights:
    # one box entry and one rates call per weighting, consulted once per
    # evaluation: two at m' = 0 and one per m' != 0, whose values and
    # gradients share one weighted evaluation of all its m''; each entry
    # holds the box of every m', whose est_tail and envelope are bit for bit
    # those of the bounds of that m' computed alone
    calls = []
    rates = theta_module._rates
    monkeypatch.setattr(theta_module, "_rates", lambda Y: calls.append(Y) or rates(Y))
    theta_module.clear_caches()
    t = sample_siegel_point(3, rng)
    for m in all_characteristics(3):
        theta_eval(m, t)
        theta_eval(m, t, want_gradient=True)
    info = theta_module._certified_box.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2 + 7 - 2)
    assert len(calls) == 2
    lam, mus = rates(t.tau.imag)
    for weighted in (False, True):
        got_lam, boxes = theta_module._certified_box(t.tau.imag.tobytes(), 3, 0.0, weighted,
                                                     DEFAULT_POLICY)
        assert got_lam == lam and boxes.shape == (8, 5) and not boxes.flags.writeable
        for m_prime, box in zip(itertools.product((0, 1), repeat=3), boxes):
            bounds, envelope = theta_module._axis_bounds(lam, mus, 0.0, m_prime, weighted)
            widths = tuple(int(w) for w in box[:3])
            assert box[3] == bounds[np.arange(3), [w + 1 for w in widths]].sum()
            assert box[4] == envelope


@pytest.mark.parametrize("g", [2, 3, 4])
def test_every_m_double_prime_of_one_m_prime_takes_one_evaluation(g, rng):
    # at z = 0 the 2^g characteristics [m'; m''] of one m' share one
    # evaluation, and each agrees with row m'' = 0 of class_sums over the
    # same widened box at y = m''/2 to 64 eps of
    # sum |weight * term| * (1 + |exponent|)
    tau = sample_siegel_point(g, rng).tau
    m_prime = tuple(int(u) for u in rng.integers(0, 2, g))
    theta_module.clear_caches()
    got = {m_double: theta_eval(Characteristic(m_prime, m_double), tau, want_gradient=True,
                                want_tau_derivative=True)
           for m_double in itertools.product((0, 1), repeat=g)}
    info = theta_module._eval_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2**g - 1, 1)
    widths, _, _ = theta_module._box(tau, np.zeros(g), m_prime, True, DEFAULT_POLICY)
    axes = theta_module._box_axes([w + 1 for w in widths], m_prime)
    P = np.array(list(itertools.product(*axes)))
    allowance = 64 * np.finfo(float).eps
    for m_double, value in got.items():
        y = np.asarray(m_double) / 2.0
        ref = class_sums(axes, tau, y, True, True)[0][0]
        ref_value, ref_grad, ref_dtau = ref[0], ref[1 : g + 1], ref[g + 1 :].reshape(g, g)
        exponent = 2j * np.pi * (0.5 * np.einsum("na,ab,nb->n", P, tau, P) + P @ y)
        size = np.abs(np.exp(exponent)) * (1.0 + np.abs(exponent))
        assert abs(value.value - ref_value) <= allowance * size.sum()
        assert np.all(np.abs(value.gradient_z - ref_grad)
                      <= allowance * 2 * np.pi * np.abs(P).T @ size)
        assert np.all(np.abs(value.tau_derivative - ref_dtau)
                      <= allowance * np.pi * (np.abs(P).T * size) @ np.abs(P))


@pytest.mark.parametrize("g", [2, 3])
def test_values_and_gradients_of_one_m_prime_share_one_evaluation(g, rng):
    # at Im z = 0 every evaluation of an m' != 0 sums its weighted box, so at
    # z = 0 the values and the gradients of all its m'' come from one entry,
    # and a value request reports that entry's est_tail; off Im z = 0 a
    # value request keeps the unweighted box
    tau = sample_siegel_point(g, rng).tau
    m_prime = tuple(int(u) for u in rng.integers(0, 2, g))
    m_prime = m_prime if any(m_prime) else (0,) * (g - 1) + (1,)
    theta_module.clear_caches()
    for m_double in itertools.product((0, 1), repeat=g):
        m = Characteristic(m_prime, m_double)
        value, full = theta_eval(m, tau), theta_eval(m, tau, want_gradient=True)
        assert value.value == full.value and value.est_tail == full.est_tail
        assert value.gradient_z is None
    info = theta_module._eval_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2 * 2**g - 1, 1)
    weighted, unweighted = (theta_module._box(tau, np.zeros(g), m_prime, w, DEFAULT_POLICY)[1]
                            for w in (True, False))
    assert value.est_tail == weighted != unweighted
    x = rng.uniform(-0.4, 0.4, g)
    assert theta_eval(m, tau, x).est_tail == weighted
    assert theta_eval(m, tau, x + 0.1j).est_tail == theta_module._box(
        tau, x + 0.1j, m_prime, False, DEFAULT_POLICY)[1]


@pytest.mark.parametrize("g, radius", [(1, 6), (2, 5), (3, 3), (4, 1)])
def test_one_row_fold_matches_row_zero_and_oracle(g, radius, rng):
    # the one-row mode of class_sums against row m'' = 0 of the all-row fold
    # and against direct box sums, at z != 0, with and without derivative
    # weights and offsets, to 64 eps of sum |weight * term| as in
    # test_class_sums_matches_oracle (a phase keeps |term|); the zero offset
    # leaves the terms unmultiplied, so its column meets the oracle too
    allowance = 64 * np.finfo(float).eps
    n = np.arange(-(radius + 1), radius + 2, dtype=float)
    for _ in range(3):
        tau = sample_siegel_point(g, rng).tau
        m_prime = tuple(int(u) for u in rng.integers(0, 2, g))
        m_double = tuple(int(u) for u in rng.integers(0, 2, g))
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-1.0, 1.0, g)
        y = z + np.asarray(m_double) / 2.0
        axes = [n + u / 2.0 for u in m_prime]
        X = rng.uniform(-0.3, 0.3, (g, g))
        offsets = np.zeros((3, g, g + 1))
        offsets[1, :, :g], offsets[2, :, g] = (X + X.T) / 2, rng.uniform(-0.4, 0.4, g)
        refs = []
        for r in (radius + 1, radius):
            ref, abs_sums = box_sum(tau, z, m_prime, m_double, r)
            refs.append((np.concatenate([[ref[0]], ref[1], ref[2].ravel()]),
                         np.concatenate([[abs_sums[0]], abs_sums[1], abs_sums[2].ravel()])))
        for want_grad, want_dtau in ((False, False), (True, False), (True, True)):
            slots = 1 + (g if want_grad else 0) + (g * g if want_dtau else 0)
            for offs in (None, offsets):
                one = class_sums(axes, tau, y, want_grad, want_dtau, offs, one_row=True)
                every = class_sums(axes, tau, y, want_grad, want_dtau, offs)
                for part, rows, (ref, scale) in zip(one, every, refs):
                    part, rows = (np.reshape(p, (-1, p.shape[-2], slots)) for p in (part, rows))
                    assert part.shape == (len(rows), 1, slots) and rows.shape[1] == 2**g
                    bound = allowance * scale[:slots]
                    assert np.all(np.abs(part[:, 0] - rows[:, 0]) <= bound)
                    assert np.all(np.abs(part[0, 0] - ref[:slots]) <= bound)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_second_order_constant_holds_one_row(g, rng):
    # theta[eps; 0](2 tau) with its tau-derivative comes from a memo entry of
    # one row, apart from the entry of every m'' that theta_eval at 2 tau
    # makes, and agrees with it to both est_tails plus 64 eps of
    # sum |weight * term| * (1 + |exponent|)
    tau = sample_siegel_point(g, rng).tau
    allowance = 64 * np.finfo(float).eps
    theta_module.clear_caches()
    for eps in itertools.product((0, 1), repeat=g):
        got = second_order_theta(eps, tau, want_tau_derivative=True)
        want = theta_eval(Characteristic(eps, (0,) * g), 2 * tau, want_tau_derivative=True)
        entry = theta_module._eval_cached(eps, (2 * tau).tobytes(), g, DEFAULT_POLICY, True, True,
                                          None, True)
        assert entry[0].shape[1] == 1
        widths, _, _ = theta_module._box(2 * tau, np.zeros(g), eps, True, DEFAULT_POLICY)
        P = np.array(list(itertools.product(*theta_module._box_axes([w + 1 for w in widths], eps))))
        exponent = 2j * np.pi * 0.5 * np.einsum("na,ab,nb->n", P, 2 * tau, P)
        size = np.abs(np.exp(exponent)) * (1.0 + np.abs(exponent))
        tails = got.est_tail + want.est_tail
        assert abs(got.value - want.value) <= tails + allowance * size.sum()
        assert np.all(np.abs(got.tau_derivative - 2 * want.tau_derivative)
                      <= 2 * (tails + allowance * np.pi * (np.abs(P).T * size) @ np.abs(P)))
    info = theta_module._eval_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2 * 2**g, 2**g, 2 * 2**g)


def test_refinement_catches_a_box_one_point_short(monkeypatch):
    # the one-point shell carries enough of the mass outside the box that a
    # box one point short on every axis fails the refinement check
    tau = np.array([[0.3 + 1.1j, 0.2 + 0.4j], [0.2 + 0.4j, -0.1 + 0.9j]])
    m = Characteristic((0, 1), (1, 0))
    theta_module.clear_caches()
    theta_eval(m, tau)
    choose = theta_module._choose_boxes

    def short(*args):
        boxes = choose(*args).copy()
        assert boxes[:, :2].min() >= 2
        boxes[:, :2] -= 1
        return boxes

    monkeypatch.setattr(theta_module, "_choose_boxes", short)
    theta_module.clear_caches()
    try:
        with pytest.raises(ConvergenceError, match="refinement moved"):
            theta_eval(m, tau)
    finally:
        theta_module.clear_caches()


def test_evaluation_is_deterministic(rng):
    from theta_forge.theta import clear_caches

    t = sample_siegel_point(2, rng)
    m = Characteristic((1, 1), (0, 0))
    a = theta_eval(m, t, want_tau_derivative=True)
    # the box, the series values, the fold tables and the fold plans are the only memos
    caches = {name: fn for mod in (theta_module, kernels_module) for name, fn in vars(mod).items()
              if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__}
    assert set(caches) == {"_certified_box", "_eval_cached", "_fold_table", "_fold_plan"}
    caches = list(caches.values())
    assert all(c.cache_info().currsize > 0 for c in caches)
    clear_caches()
    assert all(c.cache_info().currsize == 0 for c in caches)
    b = theta_eval(m, t, want_tau_derivative=True)
    assert a.value == b.value
    assert np.array_equal(a.tau_derivative, b.tau_derivative)


def test_fold_tables_are_read_only():
    # one cached table serves every fold over its axis, so no caller may write to it
    x = np.arange(-3, 4, dtype=float)
    for table in kernels_module._fold_table(x.tobytes(), 3, 2):
        with pytest.raises(ValueError):
            table[...] = 0.0


# ---------------------------------------------------------------------------
# the stencil entry: every offset of one point from one exponential


def _stencil_offsets(g, rng, count):
    """Real offsets (dtau, dz): tau-only, z-only and both, with diagonal and
    off-diagonal entries of dtau."""
    offsets = [(0, 0)]
    for k in range(count - 1):
        X = rng.uniform(-0.3, 0.3, (g, g))
        dtau = (X + X.T) / 2 if k % 3 != 1 else 0
        dz = rng.uniform(-0.4, 0.4, g) if k % 3 != 0 else 0
        offsets.append((dtau, dz))
    return offsets


def _assert_stencil_matches_theta_eval(m, tau, z, offsets, want_dtau):
    # each offset against theta_eval at the shifted point, to est_tail plus
    # 64 eps of sum |weight * term| * (1 + |exponent|) over the box both
    # sum, the exponent of a term being that at (tau, z) plus its phase's
    g = m.g
    z0 = np.zeros(g) if z is None else np.asarray(z)
    got = theta_stencil(m, tau, z, offsets, want_tau_derivative=want_dtau)
    assert len(got) == len(offsets)
    widths, _, _ = theta_module._box(tau, z0, m.m_prime, want_dtau, DEFAULT_POLICY)
    P = np.array(list(itertools.product(*theta_module._box_axes([w + 1 for w in widths],
                                                                  m.m_prime))))
    base = 2j * np.pi * (0.5 * np.einsum("na,ab,nb->n", P, tau, P)
                         + P @ (z0 + np.asarray(m.m_double_prime) / 2.0))
    allowance = 64 * np.finfo(float).eps
    for (dtau, dz), value in zip(offsets, got):
        dtau, dz = np.broadcast_to(dtau, (g, g)), np.broadcast_to(dz, (g,))
        want = theta_eval(m, tau + dtau, z0 + dz, want_tau_derivative=want_dtau)
        assert value.est_tail == want.est_tail
        phase = 2j * np.pi * (0.5 * np.einsum("na,ab,nb->n", P, dtau, P) + P @ dz)
        size = np.abs(np.exp(base)) * (1.0 + np.abs(base) + np.abs(phase))
        assert abs(value.value - want.value) <= want.est_tail + allowance * size.sum()
        if want_dtau:
            err = np.abs(value.tau_derivative - want.tau_derivative)
            assert np.all(err <= want.est_tail + allowance * np.pi * (np.abs(P).T * size)
                          @ np.abs(P))
        else:
            assert value.tau_derivative is None


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("at_zero", [True, False])
def test_stencil_matches_theta_eval_at_each_shifted_point(g, at_zero, rng):
    tau = sample_siegel_point(g, rng).tau
    z = None if at_zero else rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.2, 0.2, g)
    offsets = _stencil_offsets(g, rng, 7)
    chars = all_characteristics(g)
    for m in [chars[int(k)] for k in rng.choice(len(chars), min(len(chars), 4), replace=False)]:
        for want_dtau in (False, True):
            _assert_stencil_matches_theta_eval(m, tau, z, offsets, want_dtau)


def test_genus_4_tau_stencil_in_several_stacks(rng):
    # 24 tau-offsets +-hE of an even characteristic at genus 4 fill more
    # than one stack of phases
    tau = sample_siegel_point(4, rng).tau
    m = Characteristic((0, 1, 1, 0), (1, 0, 0, 1))
    offsets = []
    for c, d in [(0, 0), (1, 3), (2, 2), (0, 2), (3, 3), (1, 2)]:
        E = np.zeros((4, 4))
        E[c, d] = E[d, c] = 1.0
        offsets += [(s * h * E, 0) for h in (1e-3, 0.2) for s in (1, -1)]
    widths, _, _ = theta_module._box(tau, np.zeros(4), m.m_prime, True, DEFAULT_POLICY)
    axes = theta_module._box_axes([w + 1 for w in widths], m.m_prime)
    assert len(offsets) * math.prod(map(len, axes)) > kernels_module.STACK_POINTS
    theta_module.clear_caches()
    _assert_stencil_matches_theta_eval(m, tau, None, offsets, True)


def test_stencil_matches_30_digit_reference():
    # one offset in tau and z of the second reference point, against mp_theta
    # at the shifted point, with the allowance of that test
    tau = np.array([[0.21 + 0.9j, -0.3 + 0.35j], [-0.3 + 0.35j, 0.4 + 0.7j]])
    z = np.array([0.12 - 0.07j, -0.31 + 0.04j])
    dtau, dz = np.array([[0.125, -0.0625], [-0.0625, 0.25]]), np.array([-0.25, 0.125])
    allowance = 64 * np.finfo(float).eps
    for m in all_characteristics(2):
        got = theta_stencil(m, tau, z, [(0, 0), (dtau, dz)], want_tau_derivative=True)[1]
        ref, scales = mp_theta(tau + dtau, m.m_prime, m.m_double_prime, z + dz)
        for got_slot, ref_slot, scale in zip((got.value, got.tau_derivative), ref[::2],
                                             scales[::2]):
            assert np.all(np.abs(got_slot - ref_slot) <= got.est_tail + allowance * scale)


@pytest.mark.parametrize("bad", [
    [(0, [0.1j, 0.0])],  # complex dz
    [(np.array([[0.0, 0.1j], [0.1j, 0.0]]), 0)],  # complex dtau
    [(np.array([[0.0, 0.1], [0.2, 0.0]]), 0)],  # asymmetric dtau
    [(np.zeros((3, 3)), 0)],  # the wrong genus
    [(0, [np.inf, 0.0])],
    [("x", 0)],
    [0],  # not a pair
])
def test_stencil_rejects_a_complex_or_misshapen_offset(bad, tau_g2):
    m = Characteristic((0, 1), (1, 1))
    with pytest.raises(DomainError):
        theta_stencil(m, tau_g2, None, [(0, 0)] + bad)
    with pytest.raises(DomainError):  # no offset at all
        theta_stencil(m, tau_g2, None, [])


# ---------------------------------------------------------------------------
# squared multiplier


def test_kappa_identity_is_one(tau_g2):
    assert kappa_squared(SymplecticElement(np.eye(4, dtype=int)), tau_g2) == pytest.approx(1.0)


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
        gamma = conditioned_words("Gamma(4,8)", g, [t], 1, 9)[0]
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
