"""Named end-to-end identity checks, each reducing to a residual record.

Every check evaluates two independent computational paths and reports the
maximum relative deviation.  Constants that the constructions leave
implicit (the one-dimensional derivative-formula normalization, the
expansion constant of the gradient/second-order identity) are fitted from
the data and compared to their derived closed forms afterwards, never
assumed up front.

Normalization bridge used throughout: the Wronskian-type A-forms here are
built from the halved tau-derivative matrix; the classical statements of
the gradient identities use z-Hessian-normalized forms instead, which by
the heat equation (with the doubled argument of the second-order series)
are exactly 8*pi*i times ours.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import math
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalDegeneracyError
from .forms import (
    A_form,
    A_star,
    MultiplierSpec,
    ThetaProduct,
    W_of_N,
    audit_transformation,
    partial_bracket,
    pairing_bracket,
    pairing_brace,
    second_order_product,
    theta_constant_product,
)
from .multilinear import (
    box_many,
    box_power,
    cofactor_tensor,
    compound,
    from_matrix,
    star_product,
    wedge_outer,
    _det_exact,
)
from .indexkit import perm_sign, subset_rank
from .symplectic import (
    Characteristic,
    SiegelPoint,
    act_on_tau,
    all_characteristics,
    even_characteristics,
    generate_subgroup_element,
    integer_entries,
    odd_characteristics,
    sample_siegel_point,
)
from .theta import (
    TruncationPolicy,
    min_im_eigenvalue,
    second_order_theta,
    theta_eval,
    theta_gradient,
    theta_stencil,
    theta_unnormalized,
)

# z-Hessian normalization of the A-forms over the halved-tau-derivative one
HESSIAN_BRIDGE = 8j * np.pi

SCHEMA_VERSION = "theta-forge/report/3"


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    genus: int
    params: dict
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float
    seed: int

    def to_dict(self, embed_timings: bool = False) -> dict:
        out = asdict(self)
        if not embed_timings:
            out["runtime_ms"] = 0.0
        return out


def _report(name, genus, params, residual, tolerance, started, seed=0) -> IdentityReport:
    """A check's report; a ``tolerance`` of None is the row's own in ``_FAMILIES``.
    Only the exact layer draws from a seed: every other check reports seed 0."""
    if tolerance is None:
        tolerance = next(spec.rows[name] for _, _, spec in _FAMILIES if name in spec.rows)
    residual = float(residual)
    return IdentityReport(
        identity_name=name,
        genus=genus,
        params=params,
        residual=residual,
        tolerance=float(tolerance),
        passed=bool(residual < tolerance),
        runtime_ms=(time.perf_counter() - started) * 1e3,
        seed=int(seed),
    )


class _Row(NamedTuple):
    """A result of an identity family ``_family_*(genus, rng, policy, seed=0)``,
    which does its work eagerly and returns its rows in the order it made
    them; ``run_suite`` adds each row's tolerance, from the family's entry in
    ``_FAMILIES``, and its runtime."""

    identity_name: str
    params: dict
    residual: float
    stamp: float  # perf_counter() when the row was made
    genus: int | None  # None: the genus the family ran at


def _row(name, params, residual, genus=None) -> _Row:
    return _Row(name, params, float(residual), time.perf_counter(), genus)


def _from_report(rep: IdentityReport) -> _Row:
    return _row(rep.identity_name, rep.params, rep.residual, rep.genus)


def _worst(*residuals) -> float:
    """The largest residual, or NaN if one is NaN: ``max`` keeps or drops a
    NaN by its position, and a NaN residual must fail its row."""
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def _spread(values, mean) -> float:
    """The largest deviation of ``values`` from their fitted ``mean``, relative to it."""
    return _worst(*(abs(v - mean) for v in values)) / max(1.0, abs(mean))


def _rel_scalar(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _sign(a, b) -> int:
    """(-1)^(a . b) for two integer vectors."""
    return -1 if sum(x * y for x, y in zip(a, b)) % 2 else 1


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def _cplx(value: complex) -> list[float]:
    return [float(np.real(value)), float(np.imag(value))]


def _bits_label(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def _second_order_A(eps, delta, tau, policy) -> np.ndarray:
    f = second_order_product(len(eps), tuple(eps))
    h = second_order_product(len(delta), tuple(delta))
    return A_form(f, h, tau, policy).entries


def _odd_expansion(eps, delta) -> list[tuple[int, Characteristic]]:
    """The signed odd characteristics [eps + delta; alpha] whose gradient
    outer products expand the A-form of the second-order pair (eps, delta)."""
    epd = tuple((a + b) % 2 for a, b in zip(eps, delta))
    terms = []
    for alpha in itertools.product((0, 1), repeat=len(eps)):
        n_alpha = Characteristic(epd, alpha)
        if n_alpha.is_odd:
            terms.append((_sign(alpha, delta), n_alpha))
    return terms


def _gradient_sum(eps, delta, tau, policy) -> np.ndarray:
    """Sum of s grad(theta[n]) grad(theta[n])^T over ``_odd_expansion(eps, delta)``.
    The main theorem's W-form sum is multilinear and wedge_outer(v_1..v_k) =
    k! star(v_1 v_1^T, ..), so its V_grad side is k! pi^(-2k) star(sums of the pairs)."""
    acc = np.zeros((len(eps), len(eps)), dtype=complex)
    for sgn, n_alpha in _odd_expansion(eps, delta):
        v = theta_gradient(n_alpha, tau, policy)
        acc = acc + sgn * np.outer(v, v)
    return acc


# ---------------------------------------------------------------------------
# gradient / second-order identities


def check_gsm_forward(
    n: Characteristic,
    tau: SiegelPoint,
    policy: TruncationPolicy | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Gradient outer product against the alternating A-form sum."""
    started = time.perf_counter()
    if not n.is_odd:
        raise DomainError("forward check needs an odd characteristic")
    g = n.g
    v = theta_gradient(n, tau, policy)
    lhs = np.outer(v, v)
    eps, delta = n.m_prime, n.m_double_prime
    rhs = np.zeros((g, g), dtype=complex)
    for alpha in itertools.product((0, 1), repeat=g):
        shifted = tuple((e + a) % 2 for e, a in zip(eps, alpha))
        rhs = rhs + _sign(alpha, delta) * _second_order_A(shifted, alpha, tau, policy)
    rhs = (HESSIAN_BRIDGE / 4.0) * rhs
    return _report("gsm_forward", g, {"n": n.label()}, _rel(lhs, rhs), tolerance, started)


def check_gsm_backward(
    eps,
    delta,
    tau: SiegelPoint,
    policy: TruncationPolicy | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """A-form against the signed sum of gradient outer products."""
    started = time.perf_counter()
    eps, delta = integer_entries(eps, "label"), integer_entries(delta, "label")
    g = len(eps)
    lhs = _second_order_A(eps, delta, tau, policy)
    rhs = _gradient_sum(eps, delta, tau, policy) * (2.0 ** (-(g - 2)) / HESSIAN_BRIDGE)
    params = {"eps": _bits_label(eps), "delta": _bits_label(delta)}
    return _report("gsm_backward", g, params, _rel(lhs, rhs), tolerance, started)


def check_jacobi(
    genus: int,
    taus,
    policy: TruncationPolicy | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Derivative-formula checks: fitted constants must be base-point free
    and equal their closed forms, which also see a wrong scale of theta.

    genus 1 fits the single proportionality constant between the odd
    gradient and the product of the three even constants, -pi; genus 2
    fits, for each pair of odd characteristics, the ratio of the gradient
    Jacobian to the complementary quartic product of constants, of modulus pi^2.
    """
    started = time.perf_counter()
    taus = list(taus)
    if not taus:
        raise DomainError("jacobi check needs at least one base point")
    if genus == 1:
        n = Characteristic((1,), (1,))
        evens = [Characteristic((0,), (0,)), Characteristic((1,), (0,)), Characteristic((0,), (1,))]
        cs = []
        for t in taus:
            v = theta_gradient(n, t, policy)[0]
            prod = 1.0 + 0j
            for m in evens:
                prod *= theta_eval(m, t, None, policy).value
            cs.append(v / prod)
        mean = sum(cs) / len(cs)
        # the gradient is -pi times the triple product of even constants
        error = float(abs(mean + np.pi) / np.pi)
        residual = _worst(_spread(cs, mean), error)
        params = {
            "fitted_constant": _cplx(mean),
            "expected_constant": _cplx(-np.pi),
            "constant_error": error,
            "base_points": len(taus),
        }
        return _report("jacobi", 1, params, residual, tolerance, started)
    if genus == 2:
        odds = list(odd_characteristics(2))
        worst = 0.0
        mags = []
        for n1, n2 in itertools.combinations(odds, 2):
            others = [n for n in odds if n not in (n1, n2)]
            quartic = [n1 + n2 + n for n in others]
            ratios = []
            for t in taus:
                V = np.array([theta_gradient(n1, t, policy), theta_gradient(n2, t, policy)])
                num = complex(np.linalg.det(V))
                den = 1.0 + 0j
                for m in quartic:
                    den *= theta_eval(m, t, None, policy).value
                ratios.append(num / den)
            mean = sum(ratios) / len(ratios)
            worst = _worst(worst, _spread(ratios, mean), abs(abs(mean) - np.pi**2) / np.pi**2)
            mags.append(abs(mean))
        params = {
            "pairs": len(list(itertools.combinations(odds, 2))),
            "mean_ratio_magnitude": float(np.mean(mags)),
            "base_points": len(taus),
        }
        return _report("jacobi", 2, params, worst, tolerance, started)
    raise DomainError("jacobi check defined for genus 1 and 2 only")


def _main_theorem_sides(pairs, tau, policy):
    k = len(pairs)
    lhs = A_star(pairs, tau, policy).entries
    sums = [from_matrix(_gradient_sum(e, d, tau, policy)) for e, d in pairs]
    rhs = star_product(*sums).entries * (math.factorial(k) * float(np.pi) ** (-2 * k))
    return lhs, rhs


def check_main_theorem(
    g: int,
    k: int,
    pairs,
    taus,
    policy: TruncationPolicy | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Fit the constant linking the A-form star product to the star of gradient sums.

    The constant must be independent of the matrix entry and the base
    point; the derived closed form is (-i pi / 2^(g+1))^k / k!.
    """
    started = time.perf_counter()
    if not 1 <= k < g:
        raise DomainError(f"need 1 <= k < g, got k={k}, g={g}")
    pairs = [(integer_entries(e, "label"), integer_entries(d, "label")) for e, d in pairs]
    if len(pairs) != k:
        raise DomainError(f"need exactly k={k} label pairs")
    taus = list(taus)
    if not taus:
        raise DomainError("main theorem check needs at least one base point")
    ratios = []
    sides = []
    for t in taus:
        lhs, rhs = _main_theorem_sides(pairs, t, policy)
        sides.append((lhs, rhs))
        cutoff = 1e-6 * float(np.max(np.abs(rhs)))
        mask = np.abs(rhs) > max(cutoff, 1e-30)
        ratios.extend((lhs[mask] / rhs[mask]).tolist())
    if not ratios:
        raise DomainError("degenerate label pairs: both sides vanish identically")
    c = complex(np.mean(ratios))
    residual = _spread(ratios, c)
    for lhs, rhs in sides:
        scale = max(float(np.max(np.abs(lhs))), 1e-30)
        residual = _worst(residual, float(np.max(np.abs(lhs - c * rhs)) / scale))
    expected = (-1j * np.pi / 2 ** (g + 1)) ** k / math.factorial(k)
    params = {
        "k": k,
        "pairs": [[_bits_label(e), _bits_label(d)] for (e, d) in pairs],
        "fitted_constant": _cplx(c),
        "expected_constant": _cplx(expected),
        "constant_error": float(abs(c - expected) / abs(expected)),
        "base_points": len(taus),
    }
    return _report("main_theorem", g, params, residual, tolerance, started)


def check_omega_consistency(
    g: int,
    F: ThetaProduct,
    H: ThetaProduct,
    tau: SiegelPoint,
    policy: TruncationPolicy | None = None,
    tolerance: float | None = None,
) -> IdentityReport:
    """Top-order pairing of (g-1)-th powers against the scaled cofactor matrix."""
    started = time.perf_counter()
    if g < 2:
        raise DomainError("needs genus >= 2")
    residual = _pairing_power_residual(F, H, g - 1, tau, policy)
    params = {"F": F.label(), "H": H.label()}
    return _report("omega_consistency", g, params, residual, tolerance, started)


def _pairing_power_residual(F, H, k, tau, policy) -> float:
    """The pairing of k-th powers of two single factors against k! times
    the order-(g-k) cofactor tensor of their A-form."""
    lhs = pairing_bracket(F.power(k), H.power(k), k, tau, policy)
    A = A_form(F, H, tau, policy).entries
    rhs = cofactor_tensor(A, F.g - k).scale(float(math.factorial(k)))
    return _rel(lhs.entries, rhs.entries)


# ---------------------------------------------------------------------------
# exact rational layer


def _rand_exact_matrix(rng, g) -> np.ndarray:
    """A g-by-g object array of Python ints in [-5, 5]."""
    return rng.integers(-5, 6, (g, g)).astype(object)


def _rand_exact_vector(rng, g) -> np.ndarray:
    # one draw per entry: a single vector draw would consume the stream differently
    return np.array([int(rng.integers(-5, 6)) for _ in range(g)], dtype=object)


# one instance's draws in the generator's order, and det(M) by Bareiss
_ExactInstance = namedtuple("_ExactInstance", "g M det laplace_k laplace_cols power_k "
                            "sigma_mats sigma_rows sigma_cols wedge_vecs B binomial_k")


def _draw_exact_instance(rng, genus_range) -> _ExactInstance:
    g = int(rng.choice(genus_range))
    M = _rand_exact_matrix(rng, g)
    laplace_k = int(rng.integers(1, g))
    # a column set for M, then one for M^T
    laplace_cols = tuple(tuple(sorted(rng.choice(g, laplace_k, replace=False) + 1)) for _ in "MT")
    power_k = int(rng.integers(2, g + 1))
    kk = int(rng.integers(2, min(3, g) + 1))
    mats = [_rand_exact_matrix(rng, g) for _ in range(kk)]
    rows, cols = (tuple(sorted(rng.choice(g, kk, replace=False) + 1)) for _ in "IJ")
    kw = int(rng.integers(1, g + 1))
    vecs = np.array([_rand_exact_vector(rng, g) for _ in range(kw)], dtype=object)
    B = _rand_exact_matrix(rng, g)
    binomial_k = int(rng.integers(2, min(3, g) + 1))
    return _ExactInstance(g, M, _det_exact(M), laplace_k, laplace_cols, power_k, mats,
                          rows, cols, vecs, B, binomial_k)


# the rows of check_exact_layer in report order; they compare exactly, so --tol leaves them
_EXACT_ROWS = tuple(f"exact_{name}" for name in (
    "laplace_expansion", "compound_power", "sigma_determinant", "adjoint_identity",
    "rank_one_wedge", "binomial_power"))


def _unequal(lhs: np.ndarray, rhs) -> int:
    """The number of leading slices in which two stacks differ anywhere."""
    return int((lhs != rhs).reshape(len(lhs), -1).any(axis=1).sum())


def check_exact_layer(
    instances: int = 60, seed: int = 0, genus_range=(2, 3, 4)
) -> list[IdentityReport]:
    """Exact checks of the multilinear layer on random integer matrices.

    The entries are Python ints, and the box products, compounds, cofactor
    tensors and determinants stay exact: integers, with a Fraction only
    where a normalization does not divide.  Every instance is drawn first;
    each identity then runs once per genus and drawn level on the stacked
    instances, and counts the instances it fails.  Each identity is
    evaluated with zero tolerance: any mismatch flips the residual to 1.0.
    The rows are ``_EXACT_ROWS``, the exact layer's entry in ``_FAMILIES``;
    their tolerance there is epsilon-level because the pass predicate is a
    strict inequality.
    """
    genus_range = tuple(genus_range)
    if not genus_range or any(int(g) < 2 for g in genus_range):
        raise DomainError(f"exact layer needs genera >= 2, got {genus_range}")
    if instances < 1:
        raise DomainError(f"exact layer needs at least one instance, got {instances}")
    rng = np.random.default_rng([seed, 97])
    started = time.perf_counter()
    drawn = [_draw_exact_instance(rng, genus_range) for _ in range(instances)]
    fails = dict.fromkeys(_EXACT_ROWS, 0)

    def batches(level, *fields):
        """(genus, level, the fields stacked) per group of one genus and level."""
        groups = {}
        for x in drawn:
            groups.setdefault((x.g, level(x)), []).append(x)
        for (g, k), batch in groups.items():
            yield g, k, batch, *(np.stack([getattr(x, f) for x in batch]) for f in fields)

    # generalized Laplace expansion along a random column set of M and of M^T:
    # column J of compound ⊙ cofactor tensor, summed over the rows I
    for g, k, batch, M in batches(lambda x: x.laplace_k, "M"):
        src = np.stack([M, np.swapaxes(M, 1, 2)], axis=1).reshape(-1, g, g)
        cols = [subset_rank(g, k)[J] for x in batch for J in x.laplace_cols]
        terms = compound(src, k).entries * cofactor_tensor(src, k).entries
        totals = terms[np.arange(len(cols)), :, cols].sum(axis=-1)
        dets = np.array([x.det for x in batch], dtype=object)
        fails["exact_laplace_expansion"] += _unequal(totals, np.repeat(dets, 2))

    # repeated box power against the compound
    for g, k, batch, M in batches(lambda x: x.power_k, "M"):
        lhs = box_power(from_matrix(M), k).entries
        fails["exact_compound_power"] += _unequal(lhs, compound(M, k).entries)

    # mixed-column determinant expansion of one entry of the box product
    for g, k, batch, mats in batches(lambda x: len(x.sigma_mats), "sigma_mats"):
        prod = box_many([from_matrix(mats[:, j]) for j in range(k)])
        rank = subset_rank(g, k)
        for entries, x in zip(prod.entries, batch):
            rows, acc = [i - 1 for i in x.sigma_rows], 0
            for sigma in itertools.permutations(range(k)):
                cols = np.column_stack([x.sigma_mats[pos][rows, x.sigma_cols[s] - 1]
                                        for pos, s in enumerate(sigma)])
                acc += perm_sign(sigma) * _det_exact(cols)
            entry = entries[rank[x.sigma_rows], rank[x.sigma_cols]]
            fails["exact_sigma_determinant"] += entry != Fraction(acc, math.factorial(k))

    # adjoint identity
    for g, _, batch, M in batches(lambda x: 1, "M"):
        adj = np.swapaxes(cofactor_tensor(M, 1).entries, 1, 2)
        dets = np.array([x.det for x in batch], dtype=object)[:, None, None]
        fails["exact_adjoint_identity"] += _unequal(M @ adj, dets * np.eye(g, dtype=object))

    # rank-one star against the wedge outer product
    for g, k, batch, V in batches(lambda x: len(x.wedge_vecs), "wedge_vecs"):
        outers = [from_matrix(V[:, r, :, None] * V[:, r, None, :]) for r in range(k)]
        lhs = star_product(*outers).entries * math.factorial(k)
        fails["exact_rank_one_wedge"] += _unequal(lhs, wedge_outer(V).entries)

    # binomial expansion of box powers
    for g, k, batch, M, B in batches(lambda x: x.binomial_k, "M", "B"):
        rhs = sum(
            box_many([box_power(from_matrix(M), j), box_power(from_matrix(B), k - j)])
            .scale(math.comb(k, j)).entries
            for j in range(k + 1)
        )
        fails["exact_binomial_power"] += _unequal(box_power(from_matrix(M + B), k).entries, rhs)

    return [
        _report(name, 0, {"instances": instances, "failures": bad},
                0.0 if bad == 0 else 1.0, None, started, seed)
        for name, bad in fails.items()
    ]


def _family_exact_layer(genus, rng, policy, seed=0):
    """The exact layer on matrices of one genus; its rows keep genus 0."""
    return [_from_report(rep) for rep in check_exact_layer(seed=seed, genus_range=(genus,))]


# ---------------------------------------------------------------------------
# analytic families


def _heat_residual(m, tau, z, policy):
    """Richardson-refined z-Hessian against the termwise tau-derivative.

    The value at z and every z-shift of the differences come from one
    ``theta_stencil`` call.  Normalized by the natural second-derivative
    scale (2 pi)^2 |theta| as well as the matrices themselves: the
    finite-difference floor is proportional to |theta| / h^2 at the steps
    h = 1e-4 and 2e-4, so a near-critical Hessian must not masquerade as an
    identity violation.
    """
    g, steps, unit = m.g, (1e-4, 2e-4), np.eye(m.g)
    want = 4j * np.pi * theta_eval(m, tau, z, policy, want_tau_derivative=True).tau_derivative
    # per step and entry j <= k of the Hessian, its shifts in the order read below
    shifts = [np.zeros(g)]
    for h in steps:
        for j in range(g):
            shifts += [h * unit[j], -h * unit[j]]
            shifts += [h * (s * unit[j] + r * unit[k]) for k in range(j + 1, g)
                       for s, r in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    values = iter(v.value for v in theta_stencil(m, tau, z, [(0, dz) for dz in shifts], policy))
    f0 = next(values)

    def hessian(h):
        H = np.zeros((g, g), dtype=complex)
        for j in range(g):
            H[j, j] = (next(values) - 2 * f0 + next(values)) / h**2
            for k in range(j + 1, g):
                pp, pm, mp, mm = (next(values) for _ in range(4))
                H[j, k] = H[k, j] = (pp - pm - mp + mm) / (4 * h**2)
        return H

    refined = (4.0 * hessian(steps[0]) - hessian(steps[1])) / 3.0
    scale = max(
        float(np.max(np.abs(refined))),
        float(np.max(np.abs(want))),
        (2 * np.pi) ** 2 * abs(f0),
        1e-30,
    )
    return float(np.max(np.abs(refined - want)) / scale)


def _family_heat(genus, rng, policy, seed=0):
    samples = 20
    all_chars = list(itertools.product((0, 1), repeat=genus))
    worst = 0.0
    for _ in range(samples):
        mp = all_chars[int(rng.integers(len(all_chars)))]
        mpp = all_chars[int(rng.integers(len(all_chars)))]
        m = Characteristic(mp, mpp)
        t = sample_siegel_point(genus, rng)
        z = rng.uniform(-0.3, 0.3, genus) + 1j * rng.uniform(-0.15, 0.15, genus)
        worst = _worst(worst, _heat_residual(m, t, z, policy))
    return [_row("heat_equation", {"samples": samples}, worst)]


def _family_riemann(genus, rng, policy, seed=0):
    base_points = 3
    bits = list(itertools.product((0, 1), repeat=genus))
    worst_fwd = 0.0
    worst_inv = 0.0
    for _ in range(base_points):
        t = sample_siegel_point(genus, rng)
        theta_sq = {}
        for e in bits:
            for d in bits:
                theta_sq[(e, d)] = theta_eval(Characteristic(e, d), t, None, policy).value ** 2
        second = {e: second_order_theta(e, t, None, policy).value for e in bits}
        # second[sig] * second[sig + e], the products both directions read
        prods = {(sig, e): second[sig] * second[tuple((s + x) % 2 for s, x in zip(sig, e))]
                 for sig in bits for e in bits}
        for sig in bits:
            for e in bits:
                rhs = 0.0 + 0j
                for d in bits:
                    rhs += _sign(sig, d) * theta_sq[(e, d)]
                rhs /= 2**genus
                worst_fwd = _worst(worst_fwd, _rel_scalar(prods[(sig, e)], rhs))
        for e in bits:
            for d in bits:
                rhs = 0.0 + 0j
                for sig in bits:
                    rhs += _sign(sig, d) * prods[(sig, e)]
                worst_inv = _worst(worst_inv, _rel_scalar(theta_sq[(e, d)], rhs))
    return [
        _row("riemann_addition", {"direction": "product_to_squares",
             "base_points": base_points}, worst_fwd),
        _row("riemann_addition_inverse", {"direction": "squares_to_products",
             "base_points": base_points}, worst_inv),
    ]


def _family_theta_basics(genus, rng, policy, seed=0):
    t = sample_siegel_point(genus, rng)
    z = rng.uniform(-0.4, 0.4, genus) + 1j * rng.uniform(-0.2, 0.2, genus)
    worst = 0.0
    for m in all_characteristics(genus):
        a = theta_eval(m, t, z, policy).value
        b = theta_eval(m, t, -z, policy).value
        sgn = -1 if m.is_odd else 1
        worst = _worst(worst, abs(a - sgn * b) / max(1.0, abs(a)))
        if m.is_odd:
            worst = _worst(worst, abs(theta_eval(m, t, None, policy).value))
        shift = rng.integers(-2, 3, 2 * genus)
        mp = tuple(int(x) for x in np.array(m.m_prime) + 2 * shift[:genus])
        mpp = tuple(int(x) for x in np.array(m.m_double_prime) + 2 * shift[genus:])
        sgn2 = _sign(m.m_prime, shift[genus:])
        val_shift = theta_unnormalized(mp, mpp, t, z, policy)
        worst = _worst(worst, abs(val_shift - sgn2 * a) / max(1.0, abs(a)))
    return [_row("theta_parity_periodicity", {}, worst)]


def _family_rank_vanishing(genus, rng, policy, seed=0):
    """Order-2 minors of the derivative operator vanish on a single factor.

    The structural path must return the exact zero matrix; the numerical
    path assembles the same minors from Richardson finite differences
    (steps 1e-3 and 2e-3) of the termwise first-derivative matrices at
    tau +- hE, all from one ``theta_stencil`` call per characteristic.
    """
    t = sample_siegel_point(genus, rng)
    worst = 0.0
    sym_pairs = [(c, d) for c in range(genus) for d in range(c, genus)]
    steps, unit = (1e-3, 2e-3), np.eye(genus)
    # per pair (c, d) and step h: tau + hE, then tau - hE, with E = e_c e_d^T + e_d e_c^T
    offsets = [(s * h * np.maximum(np.outer(unit[c], unit[d]), np.outer(unit[d], unit[c])), 0)
               for (c, d) in sym_pairs for h in steps for s in (1, -1)]
    for m in even_characteristics(genus):
        f = theta_constant_product(genus, m)
        structural = partial_bracket(f, 2, t, policy)
        if structural.max_abs() != 0.0:
            worst = _worst(worst, 1.0)
            continue
        dmats = iter(v.tau_derivative for v in theta_stencil(
            m, t, None, offsets, policy, want_tau_derivative=True))

        def fd(h):
            plus, minus = next(dmats), next(dmats)
            return (plus - minus) / (2 * h)

        second = {}
        for (c, d) in sym_pairs:
            weight = 1.0 if c == d else 0.5
            deriv = (4.0 * fd(steps[0]) - fd(steps[1])) / 3.0
            second[(c, d)] = weight * deriv
            second[(d, c)] = second[(c, d)]
        scale = max(
            float(np.max(np.abs(v))) for v in second.values()
        )
        for I in itertools.combinations(range(genus), 2):
            for J in itertools.combinations(range(genus), 2):
                i1, i2 = I
                j1, j2 = J
                minor = (
                    second[(i1, j1)][i2, j2] - second[(i1, j2)][i2, j1]
                )
                worst = _worst(worst, abs(minor) / max(1.0, scale**2))
    return [_row("rank_vanishing", {"order": 2}, worst)]


# the orders k the pairing and main-theorem families check at each genus
_KS = {2: (1,), 3: (1, 2), 4: (2,)}


def _family_pairing_permutation(genus, rng, policy, seed=0):
    base_points = 5
    rows = []
    evens = list(even_characteristics(genus))
    for k in _KS.get(genus, ()):
        worst = 0.0
        for bp in range(base_points):
            t = sample_siegel_point(genus, rng)
            idx = rng.choice(len(evens), 2 * k, replace=False)
            fs = [theta_constant_product(genus, evens[i]) for i in idx[:k]]
            hs = [theta_constant_product(genus, evens[i]) for i in idx[k:]]
            fprod = theta_constant_product(genus, *[evens[i] for i in idx[:k]])
            hprod = theta_constant_product(genus, *[evens[i] for i in idx[k:]])
            lhs = pairing_bracket(fprod, hprod, k, t, policy)
            rhs = None
            for sigma in itertools.permutations(range(k)):
                mats = [A_form(fs[i], hs[sigma[i]], t, policy) for i in range(k)]
                term = star_product(*mats)
                rhs = term if rhs is None else rhs + term
            worst = _worst(worst, _rel(lhs.entries, rhs.entries))
        params = {"k": k, "base_points": base_points}
        rows.append(_row("pairing_permutation_expansion", params, worst))
    return rows


def _family_pairing_power(genus, rng, policy, seed=0):
    base_points = 5
    rows = []
    evens = list(even_characteristics(genus))

    def draw():
        """Two distinct even factors F, H and a base point tau, drawn tau first."""
        t = sample_siegel_point(genus, rng)
        i, j = rng.choice(len(evens), 2, replace=False)
        return theta_constant_product(genus, evens[i]), theta_constant_product(genus, evens[j]), t

    for k in _KS.get(genus, ()):
        worst = 0.0
        for _ in range(base_points):
            F, H, t = draw()
            worst = _worst(worst, _pairing_power_residual(F, H, k, t, policy))
        rows.append(_row("pairing_power_cofactor", {"k": k, "base_points": base_points}, worst))
    worst = _worst(0.0, *(check_omega_consistency(genus, *draw(), policy).residual
                          for _ in range(3)))
    rows.append(_row("omega_consistency", {"base_points": 3}, worst))
    return rows


def _family_det_remark(genus, rng, policy, seed=0):
    t = sample_siegel_point(genus, rng)
    evens = list(even_characteristics(genus))
    F = theta_constant_product(genus, evens[0])
    H = theta_constant_product(genus, evens[1])
    A = A_form(F, H, t, policy).entries
    lhs = complex(np.linalg.det(A))
    total = pairing_brace(F.power(genus), H.power(genus), genus, t, policy).scalar()
    return [_row("det_pairing_scalar", {}, _rel_scalar(lhs, total / math.factorial(genus)))]


def _family_gsm(genus, rng, policy, seed=0):
    """Every odd characteristic and label pair up to genus 2, three of each above."""
    t = sample_siegel_point(genus, rng)
    odds = list(odd_characteristics(genus))
    bits = list(itertools.product((0, 1), repeat=genus))
    if genus <= 2:
        pairs = list(itertools.product(bits, bits))
    else:
        odds = [odds[i] for i in rng.choice(len(odds), 3, replace=False)]
        pairs = [(bits[int(rng.integers(len(bits)))], bits[int(rng.integers(len(bits)))])
                 for _ in range(3)]
    rows = [_from_report(check_gsm_forward(n, t, policy)) for n in odds]
    return rows + [_from_report(check_gsm_backward(e, d, t, policy)) for e, d in pairs]


def _family_jacobi(genus, rng, policy, seed=0):
    taus = [sample_siegel_point(genus, rng) for _ in range(5)]
    return [_from_report(check_jacobi(genus, taus, policy))]


def _sample_theorem_pairs(rng, g, k):
    bits = list(itertools.product((0, 1), repeat=g))
    while True:
        pairs = []
        used_epd = set()
        for _ in range(k):
            e = bits[int(rng.integers(len(bits)))]
            d = bits[int(rng.integers(len(bits)))]
            pairs.append((e, d))
            used_epd.add(tuple((a + b) % 2 for a, b in zip(e, d)))
        if all(e != d for e, d in pairs) and len(used_epd) == k:
            return pairs


def _family_main_theorem(genus, rng, policy, seed=0):
    choices = 5
    rows = []
    for k in _KS.get(genus, ()):
        taus = [sample_siegel_point(genus, rng) for _ in range(3)]
        constants = []
        for _ in range(choices):
            pairs = _sample_theorem_pairs(rng, genus, k)
            rep = check_main_theorem(genus, k, pairs, taus, policy)
            rows.append(_from_report(rep))
            constants.append(complex(*rep.params["fitted_constant"]))
        mean = sum(constants) / len(constants)
        expected = rep.params["expected_constant"]
        params = dict(k=k, choices=choices, constant=_cplx(mean), expected_constant=expected)
        error = abs(mean - complex(*expected)) / abs(complex(*expected))
        rows.append(_row("main_theorem_constant", params, _worst(_spread(constants, mean), error)))
    return rows


def conditioned_words(group, g, base_points, count, seed):
    """Deterministic length-4 group words that keep every probe's min Im eigenvalue >= 0.05."""
    out = []
    attempt = 0
    probes = list(base_points)
    probes += [SiegelPoint(p.tau + 0.3j * np.eye(g)) for p in probes]
    while len(out) < count and attempt < 200 * count:
        gamma = generate_subgroup_element(group, g, seed + attempt, 4)
        attempt += 1
        ok = True
        for p in probes:
            try:
                if min_im_eigenvalue(act_on_tau(gamma, p)) < 0.05:
                    ok = False
                    break
            except (NumericalDegeneracyError, DomainError):
                ok = False
                break
        if ok:
            out.append(gamma)
    if len(out) < count:
        raise DomainError(
            f"could not sample {count} usable words of {group} at genus {g}"
        )
    return out


def _audit_rows(name, value_fn, phi_chars, t, policy, seed):
    """Audit the k = 2 law of ``value_fn`` at ``t`` on 10 words of the group
    its multiplier holds on; one row per word, and each word's measured
    multiplier."""
    k = 2
    spec = MultiplierSpec(kappa_power=2 * k, phi_chars=phi_chars)
    words = conditioned_words(spec.group, t.g, [t], 10, seed)
    rows, multipliers = [], []
    for i, gamma in enumerate(words):
        rep = audit_transformation(value_fn, gamma, k, spec, t, policy)
        params = {"word": i, "k": k, "group": spec.group, "multiplier": _cplx(rep.multiplier)}
        rows.append(_row(name, params, rep.residual))
        multipliers.append(rep.multiplier)
    return rows, multipliers


def _family_audit_astar(genus, rng, policy, seed=0):
    t = sample_siegel_point(genus, rng)
    pairs = [
        ((0,) * genus, (1,) + (0,) * (genus - 1)),
        ((0,) * genus, (0,) * (genus - 1) + (1,)),
    ]
    rows, multipliers = _audit_rows(
        "audit_astar", lambda pt: A_star(pairs, pt, policy), (), t, policy, seed + 7000
    )
    # fourth power of the multiplier is 1 on the level-(2,4) group; with no
    # phase characters the measured multiplier is that fourth power
    worst = _worst(*(abs(kappa4 - 1.0) for kappa4 in multipliers))
    rows.append(_row("kappa_fourth_power", {"words": len(multipliers)}, worst))
    return rows


def _family_audit_w(genus, rng, policy, seed=0):
    t = sample_siegel_point(genus, rng)
    ns = odd_characteristics(genus)[:2]
    rows, _ = _audit_rows(
        "audit_gradient_wedge", lambda pt: W_of_N(ns, pt, policy), ns, t, policy, seed + 9000
    )
    return rows


# ---------------------------------------------------------------------------
# suite driver


class _Spec(NamedTuple):
    """What ``run_suite`` knows of a family besides its function."""

    genera: tuple  # the genera it runs at
    rows: dict  # row name -> pass tolerance: every row the family may return
    fixed: tuple = ()  # the rows whose tolerance the override leaves alone


# (name, family, spec); a family's index here seeds its generator
_FAMILIES = (
    ("exact_layer", _family_exact_layer,
     _Spec((2, 3, 4), dict.fromkeys(_EXACT_ROWS, 1e-15), _EXACT_ROWS)),
    ("theta_basics", _family_theta_basics, _Spec((1, 2, 3), {"theta_parity_periodicity": 1e-10})),
    ("heat", _family_heat, _Spec((1, 2, 3), {"heat_equation": 1e-7})),
    ("riemann", _family_riemann,
     _Spec((1, 2, 3), {"riemann_addition": 1e-9, "riemann_addition_inverse": 1e-9})),
    ("rank_vanishing", _family_rank_vanishing, _Spec((2, 3), {"rank_vanishing": 1e-8})),
    ("pairing_permutation", _family_pairing_permutation,
     _Spec((2, 3, 4), {"pairing_permutation_expansion": 1e-8})),
    ("pairing_power", _family_pairing_power,
     _Spec((2, 3, 4), {"pairing_power_cofactor": 1e-8, "omega_consistency": 1e-8})),
    ("det_remark", _family_det_remark, _Spec((1, 2, 3), {"det_pairing_scalar": 1e-8})),
    ("gsm", _family_gsm, _Spec((1, 2, 3), {"gsm_forward": 1e-8, "gsm_backward": 1e-8})),
    ("jacobi", _family_jacobi, _Spec((1, 2), {"jacobi": 1e-8})),
    ("main_theorem", _family_main_theorem,
     _Spec((2, 3), {"main_theorem": 1e-7, "main_theorem_constant": 1e-7})),
    ("audit_astar", _family_audit_astar,
     _Spec((2, 3), {"audit_astar": 1e-7, "kappa_fourth_power": 1e-9}, ("kappa_fourth_power",))),
    ("audit_w", _family_audit_w, _Spec((2, 3), {"audit_gradient_wedge": 1e-7})),
)


def _params_key(report: IdentityReport) -> str:
    return json.dumps(report.params, sort_keys=True, default=str)


def run_suite(
    genus_list,
    seed: int = 0,
    policy: TruncationPolicy | None = None,
    name_filter=None,
    tolerance: float | None = None,
) -> list[IdentityReport]:
    """Run every applicable identity family for the requested genera.

    Each entry ``(name, family, spec)`` of ``_FAMILIES`` runs once per
    requested genus in ``spec.genera``, with its own generator drawn from
    (seed, entry index, genus), and returns rows of (identity name, params,
    residual).  Each row becomes a report at that genus (a row taken from a
    ``check_*`` report keeps its genus, so the exact rows stay at 0) with
    the tolerance ``spec.rows`` gives it; ``tolerance`` replaces that for
    every row of ``spec.rows`` outside ``spec.fixed``, that is everywhere
    except the exact rows and ``kappa_fourth_power``.  A row that its
    family does not declare gets tolerance 0, which no override changes.
    ``runtime_ms`` is the time since the family's previous row, or since
    its run began, so the rows add up to the time spent in the families.

    Failures are reported, never raised: a family that raises gives one
    ``<family>_error`` row with residual 9e99 and tolerance 0.  A NaN
    residual fails its row.  The report list is sorted by (identity_name,
    genus, params) so aggregation is order-deterministic.  With
    ``name_filter``, only rows whose name matches it are kept, and a family
    none of whose declared rows or error row can match is not run.
    Every genus must be an integer in 1..4.
    """
    genus_list = integer_entries(genus_list, "genus")
    for g in genus_list:
        if not 1 <= g <= 4:
            raise DomainError(f"genus {g} outside 1..4")

    reports = []
    for fam_index, (fam_name, fn, spec) in enumerate(_FAMILIES):
        names = [*spec.rows, f"{fam_name}_error"]
        if name_filter and not any(fnmatch.fnmatch(n, name_filter) for n in names):
            continue
        overridable = spec.rows.keys() - spec.fixed
        for g in sorted(set(genus_list).intersection(spec.genera)):
            rng = np.random.default_rng([seed, fam_index, g])
            last = time.perf_counter()
            try:
                rows = fn(g, rng, policy, seed=seed)
            except Exception as exc:  # report, never raise
                error = {"error": f"{type(exc).__name__}: {exc}"}
                rows = [_row(f"{fam_name}_error", error, 9e99)]
            for row in rows:
                # an undeclared row, such as an error row, never passes
                tol = spec.rows.get(row.identity_name, 0.0)
                if tolerance is not None and row.identity_name in overridable:
                    tol = float(tolerance)
                row_genus = g if row.genus is None else row.genus
                runtime_ms = (row.stamp - last) * 1e3
                reports.append(IdentityReport(
                    row.identity_name, row_genus, row.params, row.residual, tol,
                    row.residual < tol, runtime_ms, int(seed),
                ))
                last = row.stamp

    if name_filter:
        reports = [
            r for r in reports if fnmatch.fnmatch(r.identity_name, name_filter)
        ]
    reports.sort(key=lambda r: (r.identity_name, r.genus, _params_key(r)))
    return reports


def reports_to_json(
    reports, config: dict | None = None, embed_timings: bool = False
) -> str:
    """Serialize reports with the stable schema; timings are zeroed unless
    embedding is requested, keeping equal runs byte-identical."""
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config or {},
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict(embed_timings) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
