"""Lattice-sum kernels for theta evaluation.

The inner loop sums exp(2 pi i (p tau p / 2 + p y)) over a box of shifted
lattice points, optionally accumulating the termwise z-gradient and the
termwise tau-derivative weights.  Two interchangeable implementations are
provided: a numba JIT kernel (default) and a vectorized pure-numpy fallback.
Select with THETA_FORGE_BACKEND=numba|numpy|auto; both sum in the same
lexicographic point order, so each backend is bit-stable run to run.
"""

from __future__ import annotations

import os

import numpy as np

TWO_PI_I = 2j * np.pi
PI_I = 1j * np.pi

_env = os.environ.get("THETA_FORGE_BACKEND", "auto").strip().lower()
if _env not in ("auto", "numba", "numpy"):
    raise RuntimeError(f"THETA_FORGE_BACKEND must be auto, numba or numpy, got {_env!r}")

_numba_impl = None
if _env in ("auto", "numba"):
    try:
        import numba

        @numba.njit(cache=True, fastmath=False)
        def _theta_sum_numba(P, tau, y, want_grad, want_dtau):
            n_pts, g = P.shape
            val = 0.0 + 0.0j
            grad = np.zeros(g, dtype=np.complex128)
            dtau = np.zeros((g, g), dtype=np.complex128)
            for n in range(n_pts):
                w = 0.0 + 0.0j
                for a in range(g):
                    row = 0.0 + 0.0j
                    for b in range(g):
                        row += tau[a, b] * P[n, b]
                    w += 0.5 * P[n, a] * row + P[n, a] * y[a]
                term = np.exp(TWO_PI_I * w)
                val += term
                if want_grad:
                    for a in range(g):
                        grad[a] += TWO_PI_I * P[n, a] * term
                if want_dtau:
                    for a in range(g):
                        for b in range(g):
                            dtau[a, b] += PI_I * P[n, a] * P[n, b] * term
            return val, grad, dtau

        _numba_impl = _theta_sum_numba
    except ImportError:
        if _env == "numba":
            raise RuntimeError(
                "THETA_FORGE_BACKEND=numba requested but numba is not importable"
            ) from None


def theta_sum_numpy(P, tau, y, want_grad, want_dtau):
    """Vectorized reference implementation of the lattice sum."""
    g = P.shape[1]
    quad = np.einsum("ni,ij,nj->n", P, tau, P)
    w = 0.5 * quad + P @ y
    terms = np.exp(TWO_PI_I * w)
    val = complex(terms.sum())
    grad = np.zeros(g, dtype=complex)
    dtau = np.zeros((g, g), dtype=complex)
    if want_grad:
        grad = TWO_PI_I * (P * terms[:, None]).sum(axis=0)
    if want_dtau:
        dtau = PI_I * np.einsum("n,na,nb->ab", terms, P, P)
    return val, grad, dtau


def theta_sum_numba(P, tau, y, want_grad, want_dtau):
    if _numba_impl is None:
        raise RuntimeError("numba backend unavailable")
    return _numba_impl(P, tau, y, want_grad, want_dtau)


_active = "numba" if _numba_impl is not None else "numpy"
if _env == "numpy":
    _active = "numpy"


def active_backend() -> str:
    return _active


def set_backend(name: str) -> None:
    """Switch the dispatch target."""
    global _active
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and _numba_impl is None:
        raise RuntimeError("numba backend unavailable")
    _active = name


def has_numba() -> bool:
    return _numba_impl is not None


def theta_sum(P, tau, y, want_grad=False, want_dtau=False):
    """Dispatch the lattice sum to the active backend.

    Returns (value, gradient, dtau_matrix); the derivative slots are zero
    arrays when not requested.
    """
    P = np.ascontiguousarray(P, dtype=np.float64)
    tau = np.ascontiguousarray(tau, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    if _active == "numba":
        return theta_sum_numba(P, tau, y, want_grad, want_dtau)
    return theta_sum_numpy(P, tau, y, want_grad, want_dtau)
