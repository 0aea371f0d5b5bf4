"""Independent Riemann theta reference for checking theta-forge's outputs.

A direct numpy lattice sum over a box whose half-width comes from this
module's own Gaussian tail bound, with the termwise z-gradient and the
termwise (halved off-diagonal) tau-derivative.  It shares no code with
``theta_forge.theta`` or ``theta_forge._kernels``; it uses the same series
convention, with e(t) = exp(2 pi i t):

    theta[m', m''](tau, z) = sum_p e( p tau p / 2 + p (z + m''/2) ),
    p = n + m'/2, n in Z^g.

Each term is split into its modulus exp(-pi p Y p - 2 pi p Im y) and its
phase e(p X p / 2 + p Re y), the phase reduced mod 1 before it is
exponentiated.  The rounding allowance of each slot scales with the sum of
|term x weight| times the size of the term's exponent, which bounds how far
rounding can move either this sum or theta-forge's.

Tail bound.  With lam = lambda_min(Y) and c_i = |Im z_i|,

    |term(p)| <= prod_i exp(-pi lam x_i^2 + 2 pi c_i |x_i|),

and every derivative weight (1, 2 pi |p_a|, pi |p_a p_b|) is at most
pi (1 + |p|^2) <= pi prod_i (1 + x_i^2).  So the mass outside the box
max_i |x_i| <= R is at most pi * sum_i T_i(R) prod_{j != i} S_j, where S_j
sums the one-dimensional envelope (1 + x^2) exp(-pi lam x^2 + 2 pi c_j |x|)
over x in Z + m'_j/2 and T_i(R) sums it over |x| > R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
# Multiple of eps * sum|term * weight| * (1 + 2 pi |exponent|) allowed for
# rounding, on either side of a comparison: it covers the summation order
# over up to 10^6 points and the error of each term's exponent.
ROUNDING = 32.0

_MAX_HALF_WIDTH = 40


@dataclass(frozen=True)
class ReferenceValue:
    value: complex
    gradient: np.ndarray
    tau_derivative: np.ndarray
    tail: float
    radius: float
    # rounding allowance of each slot (value, per gradient entry, per tau entry)
    value_allowance: float
    gradient_allowance: np.ndarray
    tau_allowance: np.ndarray


def _envelope_sums(lam: float, c: float, half: bool, radius: float) -> tuple[float, float]:
    """(S, T): the one-dimensional envelope summed over all of Z + u and over
    |x| > radius only, u = 1/2 when ``half``."""
    # beyond |x| = reach the exponent is below -800, far under any double
    reach = (2.0 * np.pi * c + np.sqrt((2.0 * np.pi * c) ** 2 + 3200.0 * np.pi * lam)) / (
        2.0 * np.pi * lam
    )
    n = int(np.ceil(reach)) + 2
    x = np.arange(-n, n + 1, dtype=float) + (0.5 if half else 0.0)
    env = (1.0 + x * x) * np.exp(-np.pi * lam * x * x + 2.0 * np.pi * c * np.abs(x))
    return float(env.sum()), float(env[np.abs(x) > radius].sum())


def tail_bound(lam: float, im_z, m_prime, radius: float) -> float:
    """Bound on |value|, |gradient| and |tau-derivative| entries of the mass
    outside the box max_i |x_i| <= radius."""
    sums = [_envelope_sums(lam, abs(float(c)), u == 1, radius) for u, c in zip(m_prime, im_z)]
    total = 0.0
    for i, (_, tail_i) in enumerate(sums):
        prod = tail_i
        for j, (full_j, _) in enumerate(sums):
            if j != i:
                prod *= full_j
        total += prod
    return np.pi * total


def _box(m_prime, radius: float) -> np.ndarray:
    axes = []
    for u in m_prime:
        k = int(np.floor(radius - 0.5 * u))
        axes.append(np.arange(-k - u, k + 1, dtype=float) + 0.5 * u)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=1)


def theta_reference(m_prime, m_double_prime, tau, z=None, tol: float = 1e-20) -> ReferenceValue:
    """Theta with characteristic (m', m'') at (tau, z), summed over a box
    whose tail bound is below ``tol``."""
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    if tau.shape != (g, g) or len(m_prime) != g or len(m_double_prime) != g:
        raise ValueError("genus mismatch between tau and the characteristic")
    z = np.zeros(g, dtype=complex) if z is None else np.asarray(z, dtype=complex).reshape(g)
    X, Y = tau.real, tau.imag
    lam = float(np.linalg.eigvalsh(Y)[0])
    if lam <= 0:
        raise ValueError("Im tau is not positive definite")
    y = z + np.asarray(m_double_prime, dtype=float) / 2.0

    radius = 1.0
    tail = tail_bound(lam, y.imag, m_prime, radius)
    while tail > tol:
        radius += 1.0
        if radius > _MAX_HALF_WIDTH:
            raise ValueError(f"no box up to half-width {_MAX_HALF_WIDTH} reaches {tol:g}")
        tail = tail_bound(lam, y.imag, m_prime, radius)

    P = _box(m_prime, radius)
    log_mod = -np.pi * np.einsum("ni,ij,nj->n", P, Y, P) - 2.0 * np.pi * (P @ y.imag)
    phase = 0.5 * np.einsum("ni,ij,nj->n", P, X, P) + P @ y.real
    modulus = np.exp(log_mod)
    # size of each term's exponent, which scales the error of its rounding
    spread = modulus * (1.0 + np.abs(log_mod) + 2.0 * np.pi * np.abs(phase))
    terms = modulus * np.exp(2j * np.pi * (phase - np.floor(phase)))

    value = complex(terms.sum())
    gradient = 2j * np.pi * (terms @ P)
    weighted = P * terms[:, None]
    tau_derivative = 1j * np.pi * (weighted.T @ P)

    absP = np.abs(P)
    value_allowance = ROUNDING * EPS * float(spread.sum())
    gradient_allowance = ROUNDING * EPS * 2.0 * np.pi * (spread @ absP)
    tau_allowance = ROUNDING * EPS * np.pi * ((absP * spread[:, None]).T @ absP)
    return ReferenceValue(
        value=value,
        gradient=gradient,
        tau_derivative=tau_derivative,
        tail=float(tail),
        radius=radius,
        value_allowance=value_allowance,
        gradient_allowance=gradient_allowance,
        tau_allowance=tau_allowance,
    )
