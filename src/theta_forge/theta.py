"""Truncated theta series with characteristics and their derivatives.

The series convention is exp(t) = e^{2 pi i t} throughout:

    theta_m(tau, z) = sum_n exp( (1/2) (n+m'/2) tau (n+m'/2) + (n+m'/2) (z+m''/2) )

summed over an axis-aligned box of shifted lattice points whose half-width
is chosen per axis from a rigorous Gaussian tail bound; derivatives are
always termwise (each lattice point contributes polynomial weights), never
finite differences.

Tail bounds are products of one-dimensional envelope sums, computed for
every radius 0 .. _MAX_RADIUS + 1 at once as numpy arrays.  With
Y = Im(tau), lam = lambda_min(Y) and mu_i = 1 / (Y^-1)_ii >= lam, every x
has x^T Y x >= (1 - t) lam |x|^2 + t mu_i x_i^2 for t in [0, 1], so the
envelope mass of the points with |x_i| > w is at most the tail at rate
(1 - t) lam + t mu_i times the totals of the other coordinates at rate
(1 - t) lam.  Axis i's bound is the least of these over a fixed set of
splits t (t = 0 is the isotropic bound), all in one array operation.  Each
axis takes the first width whose bound clears ``target_tol / 20 / g``, so
the mass outside the box stays under ``target_tol / 20``; if some axis has
no such width up to _MAX_RADIUS, the evaluation raises ``ConvergenceError``.
The reported tail is the bound at width + 1, and the isotropic totals
(split t = 0) scale the rounding allowance of the refinement check.
The box depends on tau only through Im tau: ``_certified_box`` memoises
the boxes of every m' per (Im tau, |Im z|, weighting, policy), so every
characteristic at tau, and every real offset of (tau, z), share one entry.
An evaluation is weighted if it asks for a derivative, or if Im z = 0 and
m' != 0: such an m' has odd characteristics, whose datum at Im z = 0 is the
gradient, so its values and gradients share a box.

Every evaluation sums the box widened by one point per axis (the shell just
outside the box carries nearly all the mass beyond it) and, from the same
terms, its core; the two must agree to ``target_tol / 10`` plus a rounding
allowance.  ``theta_stencil`` does so at a list of real offsets of one
point from one exponential, each offset checked on its own; ``theta_eval``
is its single point.  At z = 0 one ``_kernels.class_sums`` call, kept in
``_eval_cached`` per (tau, m', weighting, offsets, rows), serves every m''
of an m', values and gradients alike, or for a second-order constant its
row m'' = 0 alone.  At z != 0 one call, not memoised, serves one
characteristic: the one-row ``class_sums`` at y = z + m''/2.  The kernel
keeps the last two memos, its read-only fold weights per axis and its fold
plan per genus and degree, which ``clear_caches`` drops with the other two.
The exponent's rounding grows with Re tau and Re z, so before any sum each
real part with |x| > 1 is moved into [-1, 1] exactly by the period law
theta[m](tau + 2S, z + 2k) = i^(m' S m') theta[m](tau, z), S and k integer;
``_eval_cached`` keys tau as given and reduces it, phase included, on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._kernels import _fold_plan, _fold_table, class_sums
from .errors import ConvergenceError, DomainError
from .symplectic import Characteristic, SiegelPoint, integer_entries, parity

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

    The evaluator picks a box whose tail bound (the envelope mass outside
    it) clears ``target_tol / 20``, sums it widened by 1 on every axis, and
    requires the change from the box itself to stay below
    ``target_tol / 10`` plus a rounding allowance of 8 machine epsilons
    times the product of the per-coordinate envelope totals, which bounds
    the sum of |term| over any box.

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
# then no width clears the goal, or the sum is rejected: ConvergenceError
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")

# the splits t of the per-axis bound; t = 0 is the isotropic bound
_SPLITS = np.array([0.0, 0.25, 0.5, 0.75, 0.875])

# per offset 0 and 1/2, the points |x| of the span from the outside in, the
# weight 2 + 2 pi x^2 of each, and the index of the last point with |x| > r
# for r = -1 .. _MAX_RADIUS + 1 (r = -1: every point)
_SPAN = -np.sort(-np.abs(np.arange(-_ONE_DIM_SPAN, _ONE_DIM_SPAN + 1) + np.array([[0.0], [0.5]])))
_SPAN_WEIGHT = 2.0 + 2.0 * np.pi * _SPAN * _SPAN
_SPAN_LAST = (_SPAN[:, None, :] > np.arange(-1, _MAX_RADIUS + 2)[:, None]).sum(axis=-1) - 1
# exp of a lower exponent is +0.0 exactly, which numpy's exp is slow to find
_EXP_ZERO_BELOW = -746.0


def _envelope_sums(lams, b, weighted):
    """Full and tail sums of the per-coordinate envelope at each rate of the
    1-D array ``lams``, over the points x in Z and in Z + 1/2.

    The envelope exp(-pi lam x^2 + 2 pi b |x|) dominates |term|
    contributions per coordinate; with ``weighted`` it carries the factor
    (2 + 2 pi x^2), which bounds every termwise derivative weight used here
    (2 pi |x| and pi |x_a x_b| alike).  Returns ``(flat, sums)``: ``flat[k]``
    is True where rate ``lams[k]`` leaves material mass beyond the summation
    span, and ``sums[h, k]`` holds, at offset h / 2, the full sum and then
    the sums over |x| > r for r = 0 .. _MAX_RADIUS + 1.  Each is read off one
    running sum over the points in decreasing order of |x|, so the smallest
    terms come first.
    """
    x = _SPAN[:, None]
    exponent = -np.pi * lams[:, None] * x
    exponent *= x
    if b:  # adding 0 would change no exp
        exponent += 2.0 * np.pi * b * x
    terms = np.zeros_like(exponent)
    np.exp(exponent, out=terms, where=exponent > _EXP_ZERO_BELOW)
    # mass beyond the summation span must be immaterial at any certified tolerance
    flat = _SPAN_WEIGHT[0, 0] * terms[0, :, 0] > 1e-30
    if weighted:
        terms *= _SPAN_WEIGHT[:, None]
    np.cumsum(terms, axis=-1, out=terms)
    rows = np.arange(terms.size, step=terms.shape[-1]).reshape(2, -1, 1)
    return flat, terms.take(rows + _SPAN_LAST[:, None])


def _axis_bounds(lam, mus, b, m_prime, weighted):
    """Envelope mass of the points beyond radius r on axis i, as a read-only
    (..., g, _MAX_RADIUS + 2) array for m' of shape (..., g): the least bound
    over the splits, inf where none is finite.  Split k puts every coordinate
    at rate (1 - t_k) lam except axis i, at (1 - t_k) lam + t_k mu_i; it is
    skipped where rate (1 - t_k) lam is too flat.  Also returns the rounding
    envelope of each m', the product of its isotropic totals."""
    g, k = len(mus), len(_SPLITS)
    u = np.asarray(m_prime)
    lead, u = u.shape[:-1], u.reshape(-1, g)
    # per split the base rate (1 - t) lam, then each axis's own rate
    rates = (1.0 - _SPLITS)[:, None] * lam + _SPLITS[:, None] * np.array((0.0, *mus))
    with np.errstate(**_QUIET_OVERFLOW):
        flat, sums = _envelope_sums(rates.ravel(), b, weighted)
        flat = flat[:: g + 1]
        if flat.all():
            raise ConvergenceError("tail bound unreliable: envelope too flat")
        sums = sums.reshape(2, k, g + 1, -1)
        # per split, m' and axis i: the product of the other coordinates' totals
        totals = sums[:, :, 0, 0]
        others = np.where(np.eye(g, dtype=bool), 1.0, totals.T[:, u, None])
        others = np.multiply.reduce(others, axis=-2)
        per_split = sums[:, :, 1:, 1:][u, np.arange(k)[:, None, None], np.arange(g)]
        per_split *= others[..., None]
        per_split[flat] = np.inf
        # the least bound over the usable splits; nan (0 * inf) is no bound
        bounds = np.fmin.reduce(per_split, axis=0, initial=np.inf).reshape(*lead, g, -1)
        envelopes = np.multiply.reduce(totals[:, 0][u], axis=-1).reshape(lead)
    bounds.setflags(write=False)
    return bounds, envelopes


def _rates(Y):
    """lambda_min(Y) and the per-axis rates mu_i = 1 / (Y^-1)_ii."""
    lam = float(np.linalg.eigvalsh(Y)[0])
    if lam <= 0:
        raise DomainError("imaginary part of tau is not positive definite")
    return lam, tuple(float(v) for v in 1.0 / np.diag(np.linalg.inv(Y)))


def _box_axes(widths, m_prime):
    """Per axis, the shifted points x = n + m'/2 with |x| <= width."""
    return [np.arange(0.5 * u - w, w + 1 - u, dtype=float) for w, u in zip(widths, m_prime)]


def _choose_boxes(lam, mus, b, policy: TruncationPolicy, weighted):
    """The boxes of every m' in {0, 1}^g, in lexicographic order, as a
    read-only (2^g, g + 2) array: per m' the widths of its certified box (per
    axis the first width >= 1 whose bound clears ``target_tol / 20 / g``, 0
    if none up to _MAX_RADIUS does), est_tail at width + 1 and the envelope."""
    g = len(mus)
    m_primes = (np.arange(2**g)[:, None] >> np.arange(g - 1, -1, -1)) & 1
    bounds, envelopes = _axis_bounds(lam, mus, b, m_primes, weighted)
    hits = bounds[..., 1 : _MAX_RADIUS + 1] < policy.target_tol / 20.0 / g
    widths = np.where(hits.any(axis=-1), 1 + hits.argmax(axis=-1), 0)
    rows = bounds.reshape(-1, _MAX_RADIUS + 2)
    tails = rows[np.arange(len(rows)), widths.ravel() + 1].reshape(widths.shape).sum(axis=-1)
    boxes = np.column_stack([widths, tails, envelopes])
    boxes.setflags(write=False)
    return boxes


@lru_cache(maxsize=1024)
def _certified_box(im_bytes, g, b, weighted, policy: TruncationPolicy):
    """lambda_min(Im tau) and the boxes of every m' at one Im tau, all read
    off one set of envelope rows and kept as one small array."""
    lam, mus = _rates(np.frombuffer(im_bytes).reshape(g, g))
    return lam, _choose_boxes(lam, mus, b, policy, weighted)


def _bits_index(bits):
    """The index of the 0/1 tuple ``bits`` in lexicographic order."""
    return reduce(lambda index, bit: 2 * index + bit, bits, 0)


def _box(tau, z, m_prime, weighted, policy: TruncationPolicy):
    """Widths, ``est_tail`` and rounding envelope of the box of m' at
    (tau, z), from the memo of every m' at Im tau."""
    g = len(z)
    b = float(np.linalg.norm(z.imag)) if z.imag.any() else 0.0
    lam, boxes = _certified_box(tau.imag.tobytes(), g, b, weighted, policy)
    box = boxes[_bits_index(m_prime)].tolist()
    if not all(box[:g]):
        raise ConvergenceError(f"no width <= {_MAX_RADIUS} reaches target_tol="
                               f"{policy.target_tol:g} on every axis (lambda_min={lam:.3g})")
    return tuple(int(w) for w in box[:g]), box[g], box[g + 1]


def _certified_sums(tau, z, m_prime, weighted, policy: TruncationPolicy, kernel):
    """``kernel``'s sums over the box of m' widened by 1 (``class_sums`` rows
    per offset), read-only, with ``est_tail`` and why each (offset, row)
    that fails its check fails."""
    widths, est_tail, envelope = _box(tau, z, m_prime, weighted, policy)
    wide = [w + 1 for w in widths]
    with np.errstate(**_QUIET_OVERFLOW):
        full, core = (s.reshape(-1, *s.shape[-2:]) for s in kernel(_box_axes(wide, m_prime)))
        changes = np.abs(full - core).max(axis=-1)
    allowed = policy.target_tol / 10.0 + _ROUNDING_ULPS * _EPS * envelope
    # a term past the float range, which the tail bound (the envelope mass
    # outside the box) need not see, overflows the sum; nan fails the check
    finite = np.isfinite(full).all(axis=-1)
    ok = finite & (changes <= allowed)
    errors = {} if ok.all() else {
        (k, row): f"the lattice sum overflows at widths {wide}" if not finite[k, row]
        else f"refinement moved the value by {changes[k, row]:g} (> {allowed:g}) at "
        f"widths {list(widths)}" for k, row in np.argwhere(~ok)}
    full.setflags(write=False)
    return full, est_tail, errors


def _turned(sums, m_prime, periods):
    """``sums`` times i^(m' S m'), read-only, for the periods S that
    ``_reduce_periods`` took out of Re tau."""
    turn = 0 if periods is None else round(m_prime @ periods @ m_prime) % 4
    sums = sums * 1j**turn if turn else sums
    sums.setflags(write=False)
    return sums


@lru_cache(maxsize=8192)
def _eval_cached(m_prime, tau_bytes, g, policy: TruncationPolicy, weighted, want_dtau, offsets,
                 one_row):
    """Every characteristic [m'; m''] at (tau, 0), or at each offset of
    ``offsets`` (the bytes of a (K, g, g + 1) array, or None), from one
    ``class_sums`` call; with ``one_row``, [m'; 0] alone.  ``tau`` is keyed
    as given: its periods are reduced here, and their phase applied, so a hit
    does neither."""
    tau, periods = _reduce_periods(np.frombuffer(tau_bytes, dtype=complex).reshape(g, g))
    offsets = None if offsets is None else np.frombuffer(offsets).reshape(-1, g, g + 1)
    full, est_tail, errors = _certified_sums(
        tau, np.zeros(g), m_prime, weighted, policy, lambda axes: class_sums(
            axes, tau, np.zeros(g), weighted, want_dtau, offsets, one_row))
    return _turned(full, m_prime, periods), est_tail, errors


def _coerce_tau(tau) -> np.ndarray:
    if isinstance(tau, SiegelPoint):
        return tau.tau
    return SiegelPoint(np.asarray(tau, dtype=complex)).tau


def _coerce_z(z, g) -> np.ndarray:
    if z is None:
        return np.zeros(g, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if z.size != g:
        raise DomainError(f"z has {z.size} entries, genus is {g}")
    if not np.isfinite(z).all():
        raise DomainError("z has an entry that is not finite")
    return np.ascontiguousarray(z.reshape(g))


def _shifts(offsets, g) -> np.ndarray:
    """The offsets (dtau, dz), dtau of shape (g, g) and dz of shape (g,), as
    a (K, g, g + 1) array [dtau | dz]."""
    offsets = list(offsets)
    shifts = np.zeros((len(offsets), g, g + 1), dtype=complex)
    try:
        for shift, (dt, dz) in zip(shifts, offsets):
            shift[:, :g], shift[:, g] = dt, dz
    except (TypeError, ValueError) as exc:
        raise DomainError(f"an offset is not a pair (dtau, dz) of genus {g}: {exc!r}") from None
    dtau = shifts[:, :, :g]
    if (not len(shifts) or shifts.imag.any() or not np.isfinite(shifts).all()
            or (dtau != dtau.swapaxes(1, 2)).any()):
        raise DomainError("offsets must be at least one, finite, real (to keep Im tau and "
                          "Im z) and symmetric in tau")
    return np.ascontiguousarray(shifts.real)


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
    return theta_stencil(m, tau, z, None, policy, want_gradient=want_gradient,
                         want_tau_derivative=want_tau_derivative)[0]


def theta_stencil(
    m: Characteristic,
    tau,
    z=None,
    offsets=None,
    policy: TruncationPolicy | None = None,
    *,
    want_gradient: bool = False,
    want_tau_derivative: bool = False,
) -> list[ThetaValue]:
    """``theta_eval`` at (tau + dtau, z + dz) for each offset (dtau, dz) of
    ``offsets`` in order, or at (tau, z) alone without ``offsets``.

    dtau is real and symmetric and dz real (either may be 0), so every point
    keeps Im tau and Im z: all share the certified box and ``est_tail`` of
    (tau, z), and one exponential over it serves them all, each offset's
    terms being those at (tau, z) times a phase.  Each offset passes its own
    refinement check.  Any other offset, or none, raises ``DomainError``.
    """
    rows, est_tail = _theta_rows(m.m_prime, m.m_double_prime, _coerce_tau(tau), z, offsets,
                                 policy, want_gradient, want_tau_derivative, False)
    g = len(m.m_prime)
    return [ThetaValue(complex(s[0]), s[1 : g + 1] if want_gradient else None,
                       s[g + 1 :].reshape(g, g) if want_tau_derivative else None, est_tail)
            for s in rows]


def _reduce_periods(x):
    """``x`` with every Re x moved into [-1, 1] by an even integer 2k, exactly
    (``np.fmod`` is), and k mod 4; ``x`` and None if every |Re x| <= 1."""
    if max(map(abs, x.real.flat)) <= 1:  # a Python loop: cheaper than numpy at this size
        return x, None
    r = np.fmod(x.real, 2)
    two_k = x.real - (r - 2 * np.round(r / 2))  # 0 where |Re x| <= 1
    return x - two_k, np.fmod(two_k / 2, 4)


def _theta_rows(m_prime, m_double, tau, z, offsets, policy, want_gradient, want_tau_derivative,
                one_row):
    """``theta_stencil`` of [m'; m''] at a checked ``tau`` as rows [value |
    gradient | tau-derivative] and ``est_tail``; with ``one_row`` (m'' = 0
    only) its z = 0 entry holds that one row, not every m'' of m'."""
    g = tau.shape[0]
    if len(m_prime) != g:
        raise DomainError(f"characteristic genus {len(m_prime)} != tau genus {g}")
    shifts = None if offsets is None else _shifts(offsets, g)
    z, _ = _reduce_periods(_coerce_z(z, g))
    policy = policy or DEFAULT_POLICY
    # at Im z = 0 an odd characteristic's datum is its gradient: every m' != 0 sums the weighted box
    weighted = bool(want_gradient or want_tau_derivative or (any(m_prime) and not z.imag.any()))
    if z.any():  # off z = 0 the m'' share no terms: one sum at y = z + m''/2, not memoised
        tau, periods = _reduce_periods(tau)
        y, row = z + np.asarray(m_double, dtype=float) / 2.0, 0
        sums, est_tail, errors = _certified_sums(
            tau, z, m_prime, weighted, policy, lambda axes: class_sums(
                axes, tau, y, want_gradient, want_tau_derivative, shifts, one_row=True))
        sums = _turned(sums, m_prime, periods)
    else:
        row = 0 if one_row else _bits_index(m_double)
        sums, est_tail, errors = _eval_cached(
            m_prime, tau.tobytes(), g, policy, weighted, bool(want_tau_derivative),
            None if shifts is None else shifts.tobytes(), one_row)
    failed = [why for (_, r), why in errors.items() if r == row]
    if failed:
        raise ConvergenceError(failed[0])
    return sums[:, row], est_tail


def theta_gradient(n: Characteristic, tau, policy: TruncationPolicy | None = None) -> np.ndarray:
    """z-gradient of the theta function at z = 0 for an odd characteristic."""
    if parity(n) != 1:
        raise DomainError("gradient at z=0 vanishes identically for even characteristics")
    return theta_eval(n, tau, None, policy, want_gradient=True).gradient_z


def second_order_theta(
    eps,
    tau,
    z=None,
    policy: TruncationPolicy | None = None,
    *,
    want_tau_derivative: bool = False,
) -> ThetaValue:
    """Second-order theta: the (eps; 0) series evaluated at (2 tau, 2 z).

    The tau-derivative is reported with respect to the outer tau, so it
    picks up the chain-rule factor 2.  At z = 0 its memo
    entry holds row m'' = 0 alone, from the one-row fold, apart from the
    entry of every m'' that ``theta_eval`` at 2 tau would make.
    """
    eps = integer_entries(eps, "second-order label")
    if any(x not in (0, 1) for x in eps):
        raise DomainError("second-order label entries must be 0 or 1")
    tau_arr = _coerce_tau(tau)
    g = tau_arr.shape[0]
    if len(eps) != g:
        raise DomainError(f"label length {len(eps)} != genus {g}")
    tau_arr = 2 * tau_arr  # a Siegel point with tau, unless it overflows
    if not np.isfinite(tau_arr).all():
        raise DomainError("tau has an entry that is not finite")
    (s,), est_tail = _theta_rows(eps, (0,) * g, tau_arr, None if z is None else 2 * _coerce_z(z, g),
                                 None, policy, False, want_tau_derivative, True)
    return ThetaValue(complex(s[0]), None,
                      2 * s[g + 1 :].reshape(g, g) if want_tau_derivative else None, est_tail)


def theta_unnormalized(mp, mpp, tau, z=None, policy: TruncationPolicy | None = None) -> complex:
    """The series with an integer characteristic (mp, mpp) not reduced mod 2,
    summed over n + mp/2 for |n| <= w_i + s_i, not through the periodicity
    law.  w_i is the certified width of axis i for the reduced
    characteristic and s_i = |mp_i - mp_i mod 2| / 2 its integer shift, so
    the box contains that characteristic's box.  Unlike ``theta_eval``, it
    does not reduce Re tau and Re z by the periods."""
    policy = policy or DEFAULT_POLICY
    tau_arr = _coerce_tau(tau)
    g = tau_arr.shape[0]
    mp, mpp = integer_entries(mp, "characteristic"), integer_entries(mpp, "characteristic")
    if len(mp) != g or len(mpp) != g:
        raise DomainError(f"characteristic lengths {len(mp)}, {len(mpp)} != genus {g}")
    z_arr = _coerce_z(z, g)
    frac = tuple(x % 2 for x in mp)
    widths = _box(tau_arr, z_arr, frac, False, policy)[0]
    reach = [w + abs(x - f) // 2 for w, x, f in zip(widths, mp, frac)]
    axes = [np.arange(-r, r + 1, dtype=float) + x / 2.0 for r, x in zip(reach, mp)]
    y = z_arr + np.asarray(mpp, dtype=float) / 2.0
    return complex(class_sums(axes, tau_arr, y, one_row=True)[0][0, 0])


def min_im_eigenvalue(tau) -> float:
    """Smallest eigenvalue of Im(tau); governs the reachable tolerance."""
    return float(np.linalg.eigvalsh(_coerce_tau(tau).imag)[0])


def clear_caches():
    """Drop the memoised boxes, series values, fold tables and fold plans."""
    for cache in (_certified_box, _eval_cached, _fold_table, _fold_plan):
        cache.cache_clear()
