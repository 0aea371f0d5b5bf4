"""The lattice-sum kernels for theta evaluation.

The theta series sums exp(2 pi i (p tau p / 2 + p y)) over a box of shifted
lattice points p.  The box is the Cartesian grid of g one-dimensional axes,
and the exponent is built over that grid by broadcasting rather than over
an N x g matrix of points: each term (x_a tau_ab) x_b of the quadratic form
is a table over two axes and each x_a y_a a table over one, added into the
grid in the order a sum over the point matrix adds them.  The quadratic
part does not depend on y, so ``_quadratic`` keeps it as a read-only grid
per (tau, axes), and every term is the same bit for bit whether it was
cached or not.  Both kernels take one np.exp over the grid and also sum its
core, ``trim`` points cut from both ends of every axis, from which the
evaluator's refinement check reads the sum over its box.  ``grid_sum`` sums
one y, for every evaluation at z != 0 and for ``theta_unnormalized``; the
termwise z-gradient and tau-derivative are read off the one- and
two-dimensional marginals of the term array.  ``class_sums`` sums every
y = m''/2, the theta constants at z = 0, from the parity classes of the
points.  Every reduction runs in a fixed order, so each result is
bit-stable run to run, and no step hands an array to BLAS.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * np.pi
PI_I = 1j * np.pi


def _on_axis(x, a, g):
    """The 1-D array ``x`` laid along axis ``a`` of a g-dimensional grid."""
    return x.reshape((1,) * a + (-1,) + (1,) * (g - 1 - a))


@lru_cache(maxsize=2)
def _quadratic(tau_key, axes_key):
    """0.5 * sum_a sum_b (x_a tau_ab) x_b over the grid, read-only.

    Keyed by the bytes of tau and of each axis, so the sums at one tau that
    share a box (the m'' of one m' at z != 0) share this grid too.
    """
    g = len(axes_key)
    tau = np.frombuffer(tau_key, dtype=np.complex128).reshape(g, g)
    axes = [np.frombuffer(x) for x in axes_key]
    grid = np.zeros(tuple(len(x) for x in axes), dtype=complex)
    for a, xa in enumerate(axes):
        row = xa[:, None] * tau[a]
        for b, xb in enumerate(axes):
            grid += _on_axis(row[:, b], a, g) * _on_axis(xb, b, g)
    grid *= 0.5
    grid.setflags(write=False)
    return grid


def _grid_terms(axes, tau, y):
    """exp(2 pi i (p tau p / 2 + p y)) over the grid of ``axes``.

    The exponent is accumulated term by term in the order of
    0.5 * sum_a sum_b (p_a tau_ab) p_b + sum_a p_a y_a, so it equals bit for
    bit what ``0.5 * np.einsum("na,ab,nb->n", P, tau, P) + P @ y`` gives
    over a point matrix P (at genus 4 BLAS may round ``P @ y`` otherwise).
    The order matters: on a large term one unit in the last place of the
    exponent is hundreds of machine epsilons of the term, more than any
    rounding allowance on the sum.  The quadratic part does not depend on
    y and is shared through ``_quadratic``.
    """
    g = len(axes)
    lin = 0.0
    for a, xa in enumerate(axes):
        lin = lin + _on_axis(xa * y[a], a, g)
    # the last step above made ``lin`` a fresh array over the whole grid
    grid = lin
    grid += _quadratic(tau.tobytes(), tuple(x.tobytes() for x in axes))
    grid *= TWO_PI_I
    return np.exp(grid, out=grid)


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
                    M = pair[a, b] = T.sum(axis=tuple(c for c in range(g) if c not in (a, b)))
                    dtau[a, b] = dtau[b, a] = PI_I * ((axes[a][:, None] * M) * axes[b]).sum()
        for a, x in enumerate(axes):
            if (a, a + 1) in pair:
                m = pair[a, a + 1].sum(axis=1)
            elif (a - 1, a) in pair:
                m = pair[a - 1, a].sum(axis=0)
            else:
                m = T.sum(axis=tuple(c for c in range(g) if c != a))
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


def class_sums(axes, tau, want_grad=False, want_dtau=False):
    """``grid_sum(axes, tau, m''/2, 1, ...)`` for all 2^g m'' at once, each
    slot with a leading axis over the m'' in lexicographic order.

    With x = n + m'/2 the term is exp(x tau x / 2) i^(2 x.m''), and the factor
    i^(2 x.m'') depends on x only through the parity of its index on each
    axis.  Each axis in turn is folded, as a (length / 2, 2) view of the terms
    as pairs of floats, into its two parities, for the full grid and its core
    and for each power of the points a weight needs; a table of the factors
    of the 2^g parities for each m'' then gives every m''.
    """
    axes = [np.asarray(x, dtype=np.float64) for x in axes]
    g, degree = len(axes), 2 if want_dtau else 1 if want_grad else 0
    terms = _grid_terms(axes, np.asarray(tau, dtype=np.complex128), np.zeros(g, dtype=complex))
    # (region, weight: the axes whose points it multiplies, parities so far, rest)
    C, weights, powers = terms.view(np.float64).reshape(1, 1, 1, -1), [()], degree + 1
    for a, x in enumerate(axes):
        n, h, b, rest = len(x), len(x) // 2, C.shape[2], C.shape[3] // len(x)
        # rows for the full grid and for its core, without the first and last index
        W = np.array([x**0, np.arange(n) % (n - 1) > 0])[:, None] * x ** np.arange(powers)[:, None]
        src = C.reshape(len(C), -1, b, n, rest)
        # each weight times each power of x, summed over each parity with no weighted copy
        pairs = src[..., : 2 * h, :].reshape(len(C), -1, b, h, 2, rest)
        C = np.einsum("rsbktm,rjkt->rsjbtm", pairs, W[..., : 2 * h].reshape(2, powers, h, 2))
        if n % 2:  # the last index is even
            C[..., 0, :] += src[:, :, None, :, -1] * W[:, None, :, -1, None, None]
        keep = [k * powers + j for k, w in enumerate(weights) for j in range(powers - len(w))]
        weights = [weights[k // powers] + (a,) * (k % powers) for k in keep]
        C = C.reshape(2, -1, 2 * b, rest)[:, keep]
    wanted = [(), *((a,) for a in range(g)), *(tuple(sorted(ab)) for ab in np.ndindex(g, g))]
    slots = [weights.index(w) for w in wanted[: (1, 1 + g, 1 + g + g * g)[degree]]]
    bits = (np.arange(2**g)[:, None] >> np.arange(g - 1, -1, -1)) & 1
    twice_first = np.rint([2 * x[:1] for x in axes]).astype(int)
    signs = np.array([1, 1j, -1, -1j])[(bits @ twice_first + 2 * bits @ bits.T) % 4]
    out = np.zeros((2, 1 + g + g * g, 2**g), dtype=complex)
    out[:, : len(slots)] = (C.view(complex)[..., 0][:, slots, None] * signs).sum(axis=-1)
    out *= np.repeat([1.0, TWO_PI_I, PI_I], [1, g, g * g])[:, None]
    return tuple((part[0], part[1 : g + 1].T, part[g + 1 :].T.reshape(-1, g, g)) for part in out)
