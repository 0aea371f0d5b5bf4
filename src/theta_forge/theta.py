"""Truncated theta series with characteristics, their derivatives, and the
squared classical multiplier.

The series convention is exp(t) = e^{2 pi i t} throughout:

    theta_m(tau, z) = sum_n exp( (1/2) (n+m'/2) tau (n+m'/2) + (n+m'/2) (z+m''/2) )

summed over an axis-aligned box of shifted lattice points.  The box radius
is chosen from a rigorous Gaussian tail bound driven by the smallest
eigenvalue of Im(tau); derivatives are always termwise (each lattice point
contributes polynomial weights), never finite differences.

The tail bound is computed for every radius 0 .. _MAX_RADIUS + 2 at once,
as numpy arrays, from one-dimensional envelope sums that are memoised per
coordinate: a coordinate has two offsets (integer or half-integer), so one
tau and z need at most four of them.  Radius selection reads the first
radius whose bound clears ``target_tol / 20``; the reported tail is the
bound at radius + 2, read from the same array.

Every evaluation takes one path: one ``_kernels.grid_sum`` call sums the box
at radius + 2 as a grid of g axes and, from the same terms, its core at
radius, and the two sums must agree to ``target_tol / 10`` plus a rounding
allowance.  So the refinement check sums no point twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import grid_sum
from .errors import ConvergenceError, DegenerateBasePointError, DomainError
from .symplectic import (
    Characteristic,
    SiegelPoint,
    SymplecticElement,
    act_on_tau,
    even_characteristics,
    membership,
    parity,
    phi_factor,
)

_MAX_RADIUS = 24
_ONE_DIM_SPAN = 64
_EPS = float(np.finfo(float).eps)
# smallest target_tol a policy accepts: 16 machine epsilons, about 3.6e-15
_MIN_TARGET_TOL = 16 * _EPS
# rounding allowance of the refinement check, in machine epsilons of the
# product of envelope totals (which bounds the sum of |term| over the box)
_ROUNDING_ULPS = 8


@dataclass(frozen=True)
class TruncationPolicy:
    """The requested accuracy of every series evaluation.

    The evaluator takes the first radius whose tail bound outside the box
    clears ``target_tol / 20``, sums the box at radius + 2, and requires the
    change from the box at radius to stay below ``target_tol / 10`` plus a
    rounding allowance of 8 machine epsilons times the product of the
    per-coordinate envelope totals, which bounds the sum of |term| over the
    box.

    ``target_tol`` must be finite and at least 16 machine epsilons (about
    3.6e-15): below that, rounding alone moves an order-one theta value by
    more than the tolerance, so no evaluation could be certified.  Anything
    else raises ``DomainError``.
    """

    target_tol: float = 1e-12

    def __post_init__(self):
        if not _MIN_TARGET_TOL <= self.target_tol < np.inf:
            raise DomainError(
                f"target_tol must be finite and at least {_MIN_TARGET_TOL:.2g} "
                f"(16 machine epsilons), got {self.target_tol:g}"
            )


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    gradient_z: np.ndarray | None
    tau_derivative: np.ndarray | None
    est_tail: float


# past the float range an envelope or a sum overflows to inf (0 * inf: nan);
# then no radius clears the goal, or the sum is rejected: ConvergenceError
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


@lru_cache(maxsize=4096)
@np.errstate(**_QUIET_OVERFLOW)
def _one_dim_sums(lam: float, b: float, half_offset: bool, weighted: bool):
    """Full sum and tail sums of the per-coordinate envelope.

    The envelope dominates |term| contributions per coordinate; with
    ``weighted`` it carries the factor (2 + 2 pi x^2), which bounds every
    termwise derivative weight used here (2 pi |x| and pi |x_a x_b| alike).
    Returns ``(total, tails)``: ``tails[r]`` sums the envelope over |x| > r
    for every radius r = 0 .. _MAX_RADIUS + 2.  Every sum runs over the
    points in increasing order of x, so each value is exactly the one a
    sequential loop over the span would give.
    """
    # mass beyond the summation span must be immaterial at any certified tolerance
    edge = (2.0 + 2.0 * np.pi * _ONE_DIM_SPAN**2) * np.exp(
        -np.pi * lam * _ONE_DIM_SPAN**2 + 2.0 * np.pi * b * _ONE_DIM_SPAN
    )
    if edge > 1e-30:
        raise ConvergenceError("tail bound unreliable: envelope too flat")
    x = np.arange(-_ONE_DIM_SPAN, _ONE_DIM_SPAN + 1) + (0.5 if half_offset else 0.0)
    terms = np.exp(-np.pi * lam * x * x + 2.0 * np.pi * b * np.abs(x))
    if weighted:
        terms = (2.0 + 2.0 * np.pi * x * x) * terms
    # row 0 keeps every point (the total), row r + 1 the points with |x| > r
    keep = np.abs(x) > np.arange(-1, _MAX_RADIUS + 3)[:, None]
    # copied: a column view would keep the whole cumulative array cached
    sums = np.cumsum(np.where(keep, terms, 0.0), axis=1)[:, -1].copy()
    tails = sums[1:]
    tails.setflags(write=False)
    return float(sums[0]), tails


@lru_cache(maxsize=4096)
@np.errstate(**_QUIET_OVERFLOW)
def _tail_bound(lam, b, m_prime, weighted):
    """Envelope mass outside the box, for every radius 0 .. _MAX_RADIUS + 2.

    A point outside the box of radius r has some coordinate beyond r, so the
    mass is at most the sum over coordinates i of tail_i(r) times the
    product of the other coordinates' totals.
    """
    per_coord = [_one_dim_sums(lam, b, u == 1, weighted) for u in m_prime]
    bound = 0.0
    for i, (_, tail) in enumerate(per_coord):
        prod = tail
        for j, (total, _) in enumerate(per_coord):
            if j != i:
                prod = prod * total
        bound = bound + prod
    bound.setflags(write=False)
    return bound


def _choose_radius(lam, b, m_prime, policy: TruncationPolicy, weighted):
    """Smallest radius >= 1 whose tail bound is under ``target_tol / 20``."""
    bounds = _tail_bound(lam, b, m_prime, weighted)
    hits = np.flatnonzero(bounds[1 : _MAX_RADIUS + 1] < policy.target_tol / 20.0)
    if hits.size == 0:
        raise ConvergenceError(
            f"no radius <= {_MAX_RADIUS} reaches target_tol={policy.target_tol:g} "
            f"(lambda_min={lam:.3g})"
        )
    radius = 1 + int(hits[0])
    return radius, float(bounds[radius])


@lru_cache(maxsize=8192)
def _eval_cached(m_key, tau_bytes, z_bytes, g, policy: TruncationPolicy, want_grad, want_dtau):
    m_prime, m_double = m_key
    tau = np.frombuffer(tau_bytes, dtype=complex).reshape(g, g)
    z = np.frombuffer(z_bytes, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag)[0])
    if lam <= 0:
        raise DomainError("imaginary part of tau is not positive definite")
    b = float(np.linalg.norm(z.imag))
    weighted = want_grad or want_dtau
    y = z + np.asarray(m_double, dtype=float) / 2.0

    radius, _ = _choose_radius(lam, b, m_prime, policy, weighted)
    # one sum at radius + 2 whose core is the box at radius; per coordinate,
    # the box holds x = n + m'/2 with |x| <= r
    r = radius + 2
    axes = [np.arange(-r, r + 1 - u, dtype=float) + 0.5 * u for u in m_prime]
    with np.errstate(**_QUIET_OVERFLOW):
        full, core = grid_sum(axes, tau, y, 2, weighted, want_dtau)
    if not all(np.isfinite(slot).all() for slot in full):
        # a term past the float range, which the tail bound (the envelope
        # mass outside the box) need not see
        raise ConvergenceError(f"the lattice sum overflows at radius {r}")
    val, grad, dtau = full
    # slots not requested are zero in both sums
    change = max(float(np.max(np.abs(np.subtract(f, c)))) for f, c in zip(full, core))
    envelope = math.prod(_one_dim_sums(lam, b, u == 1, weighted)[0] for u in m_prime)
    allowed = policy.target_tol / 10.0 + _ROUNDING_ULPS * _EPS * envelope
    if not change <= allowed:  # nan fails too
        raise ConvergenceError(
            f"refinement moved the value by {change:g} (> {allowed:g}) at radius {radius}"
        )
    grad.setflags(write=False)
    dtau.setflags(write=False)
    return val, grad, dtau, float(_tail_bound(lam, b, m_prime, weighted)[r])


def _coerce_tau(tau) -> np.ndarray:
    if isinstance(tau, SiegelPoint):
        return tau.tau
    return SiegelPoint(np.asarray(tau, dtype=complex)).tau


def _evaluate(m, tau, z, policy, want_grad, want_dtau):
    tau_arr = np.ascontiguousarray(_coerce_tau(tau))
    g = tau_arr.shape[0]
    if m.g != g:
        raise DomainError(f"characteristic genus {m.g} != tau genus {g}")
    if z is None:
        z_arr = np.zeros(g, dtype=complex)
    else:
        z_arr = np.ascontiguousarray(np.asarray(z, dtype=complex).reshape(g))
    return _eval_cached(
        (m.m_prime, m.m_double_prime),
        tau_arr.tobytes(),
        z_arr.tobytes(),
        g,
        policy or DEFAULT_POLICY,
        bool(want_grad),
        bool(want_dtau),
    )


def theta_eval(
    m: Characteristic,
    tau,
    z=None,
    policy: TruncationPolicy | None = None,
    *,
    want_gradient: bool = False,
    want_tau_derivative: bool = False,
) -> ThetaValue:
    """Evaluate the theta series, optionally with termwise derivatives.

    The gradient slot holds the z-gradient; the tau slot holds the full
    matrix of weighted tau-derivatives (the operator with the halved
    off-diagonal entries), whose termwise weight is pi*i * p_a p_b.
    """
    val, grad, dtau, tail = _evaluate(m, tau, z, policy, want_gradient, want_tau_derivative)
    return ThetaValue(
        value=val,
        gradient_z=grad if want_gradient else None,
        tau_derivative=dtau if want_tau_derivative else None,
        est_tail=tail,
    )


def theta_gradient(n: Characteristic, tau, policy: TruncationPolicy | None = None) -> np.ndarray:
    """z-gradient of the theta function at z = 0 for an odd characteristic."""
    if parity(n) != 1:
        raise DomainError("gradient at z=0 vanishes identically for even characteristics")
    _, grad, _, _ = _evaluate(n, tau, None, policy, True, False)
    return grad


def theta_tau_derivative(
    m: Characteristic, tau, z=None, policy: TruncationPolicy | None = None
) -> np.ndarray:
    """The weighted tau-derivative matrix applied to the theta series.

    Entry (a, b) applies d/d tau_{ab}, halved off the diagonal, so the
    matrix is the natural symmetric gradient with respect to a symmetric
    argument.
    """
    _, _, dtau, _ = _evaluate(m, tau, z, policy, False, True)
    return dtau


def second_order_theta(
    eps,
    tau,
    z=None,
    policy: TruncationPolicy | None = None,
    *,
    want_gradient: bool = False,
    want_tau_derivative: bool = False,
) -> ThetaValue:
    """Second-order theta: the (eps; 0) series evaluated at (2 tau, 2 z).

    Derivative slots are reported with respect to the outer (tau, z)
    variables, so both pick up the chain-rule factor 2.
    """
    eps = tuple(int(x) for x in eps)
    if any(x not in (0, 1) for x in eps):
        raise DomainError("second-order label entries must be 0 or 1")
    tau_arr = _coerce_tau(tau)
    g = tau_arr.shape[0]
    if len(eps) != g:
        raise DomainError(f"label length {len(eps)} != genus {g}")
    m = Characteristic(eps, (0,) * g)
    z_arr = np.zeros(g, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    inner = theta_eval(
        m,
        SiegelPoint(2 * tau_arr),
        2 * z_arr,
        policy,
        want_gradient=want_gradient,
        want_tau_derivative=want_tau_derivative,
    )
    return ThetaValue(
        value=inner.value,
        gradient_z=None if inner.gradient_z is None else 2 * inner.gradient_z,
        tau_derivative=None if inner.tau_derivative is None else 2 * inner.tau_derivative,
        est_tail=inner.est_tail,
    )


def _det_cd(gamma: SymplecticElement, tau_arr: np.ndarray) -> complex:
    den = gamma.C.astype(float) @ tau_arr + gamma.D.astype(float)
    return complex(np.linalg.det(den))


def kappa_squared(
    gamma: SymplecticElement, tau, policy: TruncationPolicy | None = None
) -> complex:
    """The squared theta multiplier of a level-2 group element.

    Measured from the even-characteristic transformation law in squared
    form, so no square-root branch of det(C tau + D) is ever chosen.  The
    measurement is repeated over three even characteristics and two base
    points and must agree to 1e-8.
    """
    if not membership(gamma, "Gamma(2)"):
        raise DomainError("kappa_squared requires an element of Gamma(2)")
    tau_arr = _coerce_tau(tau)
    g = gamma.g
    points = [SiegelPoint(tau_arr), SiegelPoint(tau_arr + 0.3j * np.eye(g))]
    samples = []
    for point in points:
        image = act_on_tau(gamma, point)
        det_cd = _det_cd(gamma, point.tau)
        used = 0
        for m in even_characteristics(g):
            base = theta_eval(m, point, None, policy).value
            if abs(base) < 1e-6:
                continue
            moved = theta_eval(m, image, None, policy).value
            phi2 = phi_factor(m, gamma) ** 2
            samples.append(moved**2 / (phi2 * det_cd * base**2))
            used += 1
            if used == 3:
                break
        if used == 0:
            raise DegenerateBasePointError(
                "all even theta constants vanish at the probe base point"
            )
    mean = sum(samples) / len(samples)
    spread = max(abs(s - mean) for s in samples)
    if spread > 1e-8 * max(1.0, abs(mean)):
        raise ConvergenceError(
            f"kappa^2 probes disagree by {spread:g}; transformation law violated"
        )
    return mean


def min_im_eigenvalue(tau) -> float:
    """Smallest eigenvalue of Im(tau); governs the reachable tolerance."""
    return float(np.linalg.eigvalsh(_coerce_tau(tau).imag)[0])


def clear_caches():
    """Drop memoized tail bounds and series values (mainly for tests)."""
    _one_dim_sums.cache_clear()
    _tail_bound.cache_clear()
    _eval_cached.cache_clear()
