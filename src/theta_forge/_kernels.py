"""The lattice-sum kernel for theta evaluation.

The theta series sums exp(2 pi i (p tau p / 2 + p y)) over a box of shifted
lattice points p.  The box is the Cartesian grid of g one-dimensional axes,
and the exponent is built over that grid by broadcasting rather than over
an N x g matrix of points: each term (x_a tau_ab) x_b of the quadratic form
is a table over two axes and each x_a y_a a table over one, added into the
grid in the order a sum over the point matrix adds them.  One np.exp over
the grid then gives every term.  The termwise z-gradient and tau-derivative
are read off the one- and two-dimensional marginals of the term array:
sum_p p_a term = x_a . m_a and sum_p p_a p_b term = x_a^T M_ab x_b.

With ``trim`` > 0 the kernel also sums the core of the grid: the same term
array with ``trim`` points cut from both ends of every axis, a strided view
rather than a copy.  The evaluator's refinement check reads the sum at
radius r from the terms of the sum at radius r + 2 this way.  Every
reduction runs in a fixed order, so each result is bit-stable run to run,
and no step hands a grid-sized array to BLAS.
"""

from __future__ import annotations

import numpy as np

TWO_PI_I = 2j * np.pi
PI_I = 1j * np.pi


def _on_axis(x, a, g):
    """The 1-D array ``x`` laid along axis ``a`` of a g-dimensional grid."""
    return x.reshape((1,) * a + (-1,) + (1,) * (g - 1 - a))


def _grid_terms(axes, tau, y):
    """exp(2 pi i (p tau p / 2 + p y)) over the grid of ``axes``.

    The exponent is accumulated term by term in the order of
    0.5 * sum_a sum_b (p_a tau_ab) p_b + sum_a p_a y_a, so it equals bit for
    bit what ``0.5 * np.einsum("na,ab,nb->n", P, tau, P) + P @ y`` gives
    over a point matrix P (at genus 4 BLAS may round ``P @ y`` otherwise).
    The order matters: on a large term one unit in the last place of the
    exponent is hundreds of machine epsilons of the term, more than any
    rounding allowance on the sum.
    """
    g = len(axes)
    grid = np.zeros(tuple(len(x) for x in axes), dtype=complex)
    lin = 0.0
    for a, xa in enumerate(axes):
        row = xa[:, None] * tau[a]
        for b, xb in enumerate(axes):
            grid += _on_axis(row[:, b], a, g) * _on_axis(xb, b, g)
        lin = lin + _on_axis(xa * y[a], a, g)
    grid *= 0.5
    grid += lin
    grid *= TWO_PI_I
    return np.exp(grid, out=grid)


def _marginal(T, keep):
    """Sum of ``T`` over every axis not in ``keep``."""
    return T.sum(axis=tuple(c for c in range(T.ndim) if c not in keep))


def _sums(T, axes, want_grad, want_dtau):
    """Value, z-gradient and tau-derivative of the term array ``T``."""
    g = T.ndim
    grad = np.zeros(g, dtype=complex)
    dtau = np.zeros((g, g), dtype=complex)
    if want_grad or want_dtau:
        # the 2-D marginals of neighbouring axes also give every 1-D one
        pair = {}
        if want_dtau:
            for a in range(g):
                for b in range(a + 1, g):
                    M = pair[a, b] = _marginal(T, (a, b))
                    dtau[a, b] = dtau[b, a] = PI_I * ((axes[a][:, None] * M) * axes[b]).sum()
        for a, x in enumerate(axes):
            if (a, a + 1) in pair:
                m = pair[a, a + 1].sum(axis=1)
            elif (a - 1, a) in pair:
                m = pair[a - 1, a].sum(axis=0)
            else:
                m = _marginal(T, (a,))
            if want_grad:
                grad[a] = TWO_PI_I * (x * m).sum()
            if want_dtau:
                dtau[a, a] = PI_I * ((x * x) * m).sum()
    return complex(T.sum()), grad, dtau


def grid_sum(axes, tau, y, trim=0, want_grad=False, want_dtau=False):
    """Sum the theta series over the grid of the 1-D ``axes``.

    Returns ``(full, core)``: each is ``(value, gradient, dtau_matrix)``,
    ``full`` over the whole grid and ``core`` over the grid with ``trim``
    points cut from both ends of every axis (``None`` when ``trim`` is 0).
    The derivative slots are zero arrays when not requested; the
    tau-derivative matrix is symmetric by construction.
    """
    axes = [np.asarray(x, dtype=np.float64) for x in axes]
    tau = np.asarray(tau, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    T = _grid_terms(axes, tau, y)
    full = _sums(T, axes, want_grad, want_dtau)
    if not trim:
        return full, None
    inner = slice(trim, -trim)
    core = _sums(T[(inner,) * len(axes)], [x[inner] for x in axes], want_grad, want_dtau)
    return full, core
