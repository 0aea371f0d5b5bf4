"""The lattice-sum kernel for theta evaluation.

The theta series sums exp(2 pi i (p tau p / 2 + p y)) over a box of shifted
lattice points p.  The box is the Cartesian grid of g one-dimensional axes,
and the exponent is built over that grid by broadcasting rather than over
an N x g matrix of points: each term (x_a tau_ab) x_b of the quadratic form
is a table over two axes and each x_a y_a a table over one, added into the
grid in the order a sum over the point matrix adds them.  ``class_sums``,
the one kernel, takes one np.exp over the grid and also sums its core, one
point cut from both ends of every axis, from which the evaluator's
refinement check reads the sum over its box.  It applies every termwise
derivative weight and sums every y + m''/2 at once from the parity classes
of the points, for the theta constants at z = 0 with y = 0; where only row
m'' = 0 is read (every evaluation at z != 0, at y = z + m''/2, and a
second-order constant), its one-row mode sums each axis whole, with no
parity split and no sign table.  At real offsets (dtau, dz) of (tau, y) it
reuses the one exponential times a phase per offset.  At y = 0 over a
centrally symmetric box the exponential is taken over half the grid, since
the term at -p is the term at p bit for bit.  The one memo here holds the
fold's read-only weights per axis.  Every reduction runs in a fixed order,
so each result is bit-stable run to run, and no step hands an array to BLAS.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * np.pi
PI_I = 1j * np.pi
# the most terms (grid points times offsets) in one stack of offsets; it
# keeps a stencil's fold near 1 MB at genus 3
STACK_POINTS = 2**14


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

    At y = 0 over centrally symmetric axes the term at -p is the term at p
    bit for bit, as ((-x_a) tau_ab) (-x_b) rounds as (x_a tau_ab) x_b: only
    the slices from n_0 // 2 on axis 0 are built, and the rest is their copy
    reversed on every axis.  There the p y pass is skipped too: it adds
    zeros to entries that are never -0.
    """
    g, tau, y = len(axes), np.asarray(tau, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    half = not y.any() and all((x == -x[::-1]).all() for x in axes)
    h = len(axes[0]) // 2 if half else 0
    grid = np.zeros(tuple(len(x) for x in axes), dtype=complex)
    part = grid[h:]
    x = [_on_axis(xa, a, g) for a, xa in enumerate([axes[0][h:], *axes[1:]])]
    for a in range(g):
        row = x[a][..., None] * tau[a]
        for b in range(g):
            part += row[..., b] * x[b]
    part *= 0.5
    if not half:
        part += sum(xa * y[a] for a, xa in enumerate(x))
    part *= TWO_PI_I
    np.exp(part, out=part)
    grid[:h] = part[(slice(None, None, -1),) * g][:h]
    return grid


def _offset_terms(axes, terms, offsets):
    """``terms`` times exp(2 pi i (p dtau p / 2 + p dz)) for each offset
    [dtau | dz], stacked on a last axis: one factor per axis a (dtau_aa,
    dz_a) and pair a < b (dtau_ab = dtau_ba, twice half of p_a dtau_ab p_b)
    that some offset moves, exactly 1 where an offset leaves it at 0."""
    g = len(axes)
    x = [_on_axis(xa, a, g)[..., None] for a, xa in enumerate(axes)]
    stack = np.repeat(terms[..., None], len(offsets), axis=-1)
    for a, b in itertools.combinations_with_replacement(range(g), 2):
        half, dz = (0.5, offsets[:, a, g]) if a == b else (1.0, 0.0)
        if offsets[:, a, b].any() or np.any(dz):
            stack *= np.exp(TWO_PI_I * (half * offsets[:, a, b] * x[b] + dz) * x[a])
    return stack


def class_sums(axes, tau, y, want_grad=False, want_dtau=False, offsets=None, one_row=False):
    """The theta series and its termwise derivatives at every y + m''/2 at
    once, over the grid of the 1-D ``axes`` and over its core, one point cut
    from both ends of every axis: returns ``(full, core)``, each with one row
    per m'' in lexicographic order, the value followed by the z-gradient
    (with ``want_grad``) and the flattened, symmetric tau-derivative matrix
    (with ``want_dtau``).  Row m'' = 0 sums the terms at y itself.
    With ``offsets``, a (K, g, g + 1) real array [dtau | dz], each part
    holds those rows at (tau + dtau, y + dz) for each offset, from the terms
    at (tau, y) times its phase, folded in stacks of at most STACK_POINTS
    terms.  With ``one_row`` each part holds row m'' = 0 alone.
    """
    axes = [np.asarray(x, dtype=np.float64) for x in axes]
    g, degree = len(axes), 2 if want_dtau else 1 if want_grad else 0
    terms = _grid_terms(axes, tau, y)
    if offsets is None:
        return tuple(part[0] for part in _fold(axes, terms[..., None], degree, one_row))
    # per offset a stack holds its terms, and its sign table at most (g + 1)^2 4^g entries
    step = max(1, STACK_POINTS // max(terms.size, (g + 1) ** 2 * 4**g))
    parts = [_fold(axes, _offset_terms(axes, terms, offsets[k : k + step]), degree, one_row)
             for k in range(0, len(offsets), step)]
    return tuple(np.concatenate(part) for part in zip(*parts))


@lru_cache(maxsize=1024)
def _fold_table(x_bytes, powers, p):
    """The read-only weights ``_fold`` applies along one axis x, as
    (region, power, index // p, index % p) for the indices in whole classes
    and (region, 1, power, 1, 1) for the last index: row 0 for the full grid
    and row 1 for its core, without the first and last index, each times
    x^0 ... x^(powers - 1)."""
    x = np.frombuffer(x_bytes)
    n, h = len(x), len(x) // p
    W = np.array([x**0, np.arange(n) % (n - 1) > 0])[:, None] * x ** np.arange(powers)[:, None]
    tables = W[..., : p * h].reshape(2, powers, h, p), W[:, None, :, -1, None, None]
    for table in tables:
        table.setflags(write=False)
    return tables


def _fold(axes, stack, degree, one_row=False):
    """``class_sums`` of each column of ``stack`` (the terms, one column per
    offset on a last axis) as (column, m'', slot) arrays.

    With x = n + m'/2 the term at y + m''/2 is the term at y times
    i^(2 x.m''), which depends on x only through the parity of its index on
    each axis.  Each axis in turn is folded, as a (length / 2, 2) view of the
    terms as pairs of floats, into its two parities, for the full grid and
    its core and for each power of the points a weight needs; a table of the
    factors of the 2^g parities for each m'' then gives every m''.  With
    ``one_row`` each axis is summed whole instead, as one class, and the
    sums are row m'' = 0 alone, with no sign table.
    """
    g, p = len(axes), 1 if one_row else 2  # index classes per axis
    # (region, weight: the axes whose points it multiplies, classes so far, rest)
    C, weights, powers = stack.view(np.float64).reshape(1, 1, 1, -1), [()], degree + 1
    for a, x in enumerate(axes):
        n, h, b, rest = len(x), len(x) // p, C.shape[2], C.shape[3] // len(x)
        W, W_last = _fold_table(x.tobytes(), powers, p)
        src = C.reshape(len(C), -1, b, n, rest)
        # each weight times each power of x, summed over each class with no weighted copy
        pairs = src[..., : p * h, :].reshape(len(C), -1, b, h, p, rest)
        C = np.einsum("rsbktm,rjkt->rsjbtm", pairs, W)
        if n % p:  # the last index is even
            C[..., 0, :] += src[:, :, None, :, -1] * W_last
        keep = [k * powers + j for k, w in enumerate(weights) for j in range(powers - len(w))]
        weights = [w + (a,) * j for w in weights for j in range(powers - len(w))]
        C = C.reshape(2, -1, p * b, rest)
        C = C if len(keep) == C.shape[1] else C[:, keep]  # no copy that drops nothing
    wanted = [(), *((a,) for a in range(g)), *(tuple(sorted(ab)) for ab in np.ndindex(g, g))]
    slots = [weights.index(w) for w in wanted[: (1, 1 + g, 1 + g + g * g)[degree]]]
    scale = np.array(([1.0] + [TWO_PI_I] * g + [PI_I] * g * g)[: len(slots)])
    # (region, column, slot, class), and with one class that is row m'' = 0
    sums = C.view(complex).transpose(0, 3, 1, 2)[:, :, slots]
    if not one_row:  # each row m'' from the 2^g parity classes
        bits = (np.arange(2**g)[:, None] >> np.arange(g - 1, -1, -1)) & 1
        twice_first = bits @ [round(2 * x[0]) for x in axes]
        signs = np.array([1, 1j, -1, -1j])[(twice_first[:, None] + 2 * bits @ bits.T) % 4]
        sums = (sums[..., None, :] * signs).sum(axis=-1)
    # each region as (column, m'', slot)
    return tuple(part.swapaxes(1, 2) * scale for part in sums)
