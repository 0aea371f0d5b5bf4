"""Tests of the independent theta reference.

Run from the repository root with ``python3 -m pytest perfbench``.  Genus 1
is compared with mpmath's Jacobi theta functions; genus 2-4 use
block-diagonal tau, where the series factorises into genus-1 series.
"""

import itertools

import mpmath
import numpy as np
import pytest

from reference import theta_reference

# (tau, z) pairs at genus 1, from a small Im tau with complex z to a large one
GENUS1_POINTS = [
    (0.31 + 0.12j, 0.0),
    (-0.4 + 0.8j, 0.1 - 0.05j),
    (0.07 + 1.7j, -0.23 + 0.11j),
]
# mpmath index of the Jacobi theta for each characteristic, and the sign
JACOBI = {(0, 0): (3, 1), (0, 1): (4, 1), (1, 0): (2, 1), (1, 1): (1, -1)}


def _genus1_mpmath(a, b, tau, z):
    """theta[a;b](tau, z), its z-derivative and its tau-derivative.

    theta[a;b](tau, z) = sign * jtheta(k, pi z, e^{pi i tau}); the
    tau-derivative follows from the heat equation d_tau = d_z^2 / (4 pi i).
    """
    k, sign = JACOBI[(a, b)]
    q = mpmath.exp(1j * mpmath.pi * tau)
    w = mpmath.pi * z
    val = sign * mpmath.jtheta(k, w, q)
    d1 = sign * mpmath.pi * mpmath.jtheta(k, w, q, 1)
    d2 = sign * mpmath.pi**2 * mpmath.jtheta(k, w, q, 2)
    return complex(val), complex(d1), complex(d2 / (4j * mpmath.pi))


@pytest.mark.parametrize("tau,z", GENUS1_POINTS)
@pytest.mark.parametrize("a,b", sorted(JACOBI))
def test_genus1_matches_mpmath(a, b, tau, z):
    mpmath.mp.dps = 30
    val, dz, dtau = _genus1_mpmath(a, b, tau, z)
    ref = theta_reference((a,), (b,), [[tau]], [z])
    assert abs(ref.value - val) <= 1e-13 * max(1.0, abs(val))
    assert abs(ref.gradient[0] - dz) <= 1e-12 * max(1.0, abs(dz))
    assert abs(ref.tau_derivative[0, 0] - dtau) <= 1e-12 * max(1.0, abs(dtau))


def _diagonal_point(g, rng):
    taus = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(0.3, 1.5, g)
    zs = rng.uniform(-0.2, 0.2, g) + 1j * rng.uniform(-0.05, 0.05, g)
    return taus, zs


@pytest.mark.parametrize("g", [2, 3, 4])
def test_block_diagonal_factorises(g):
    rng = np.random.default_rng(g)
    taus, zs = _diagonal_point(g, rng)
    tau = np.diag(taus)
    for mp, mpp in [
        ((0,) * g, (0,) * g),
        ((1,) + (0,) * (g - 1), (1,) * g),
        tuple(map(tuple, rng.integers(0, 2, (2, g)))),
    ]:
        ref = theta_reference(mp, mpp, tau, zs)
        factors = [
            theta_reference((mp[i],), (mpp[i],), [[taus[i]]], [zs[i]]) for i in range(g)
        ]
        vals = np.array([f.value for f in factors])
        grads = np.array([f.gradient[0] for f in factors])
        dtaus = np.array([f.tau_derivative[0, 0] for f in factors])
        prod = np.prod(vals)
        assert abs(ref.value - prod) <= 1e-13 * max(1.0, abs(prod))
        for a in range(g):
            others = np.prod(np.delete(vals, a))
            expect = grads[a] * others
            assert abs(ref.gradient[a] - expect) <= 1e-12 * max(1.0, abs(expect))
        for a, b in itertools.product(range(g), repeat=2):
            if a == b:
                expect = dtaus[a] * np.prod(np.delete(vals, a))
            else:
                # pi i p_a p_b = (pi i / (2 pi i)^2) * (2 pi i p_a) (2 pi i p_b)
                rest = np.prod(np.delete(vals, [a, b]))
                expect = grads[a] * grads[b] * rest * (1j * np.pi) / (2j * np.pi) ** 2
            got = ref.tau_derivative[a, b]
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


@pytest.mark.parametrize("g,lam", [(2, 0.05), (3, 0.2), (4, 0.6)])
def test_tail_bound_holds(g, lam):
    """The sum to the default tolerance differs from a much wider sum by no
    more than the first sum's tail bound plus both rounding allowances."""
    rng = np.random.default_rng(100 + g)
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    Y = q @ np.diag(lam + rng.uniform(0.0, 1.0, g) * np.arange(g)) @ q.T
    X = rng.uniform(-0.5, 0.5, (g, g))
    tau = (X + X.T) / 2 + 1j * Y
    z = 0.1j * rng.standard_normal(g)
    narrow = theta_reference((1,) * g, (0,) * g, tau, z, tol=1e-9)
    wide = theta_reference((1,) * g, (0,) * g, tau, z, tol=1e-25)
    assert narrow.radius < wide.radius
    assert abs(narrow.value - wide.value) <= (
        narrow.tail + narrow.value_allowance + wide.value_allowance
    )
    slack = narrow.tail + narrow.gradient_allowance + wide.gradient_allowance
    assert np.all(np.abs(narrow.gradient - wide.gradient) <= slack)
    slack = narrow.tail + narrow.tau_allowance + wide.tau_allowance
    assert np.all(np.abs(narrow.tau_derivative - wide.tau_derivative) <= slack)
