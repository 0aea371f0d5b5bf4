"""Compound matrices, cofactor tensors, and the box / star products.

A level-k compound matrix is a square array whose rows and columns are
labeled by the ordered k-subsets of {1..g} in lexicographic order: row i
is the i-th tuple of ``indexkit.subset_tuples(g, k)``, and
``indexkit.subset_rank`` gives a subset's row.  Level 0 is a single
scalar, level 1 an ordinary g-by-g matrix.  Entries are complex floats at
the main interface; every operation also accepts object-dtype arrays of
exact scalars (Python ints, Fractions), in which case all arithmetic is
carried out exactly.  Integer entries stay integers through the box
products and minors: a chain of box products divides by its binomial
normalizations once, at the end.  A result is an int wherever its value is
one.  Every minor comes from ``_minor_table``; Bareiss elimination
(``_det_exact``) is only the independent reference determinant.  Every
operation takes stacks: leading axes act slice by slice, each slice bit for
bit the call on that slice alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DomainError
from .indexkit import box_table, dual_table, minor_table


def _is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def _div_exact(x, d: int):
    """x / d exactly: an int where d divides the int x, else a Fraction."""
    if isinstance(x, int) and x % d == 0:
        return x // d
    return Fraction(x, d)


def _det_exact(a: np.ndarray):
    """Exact determinant by Bareiss fraction-free elimination.

    Every division is exact (Sylvester's identity), so int entries give an
    int throughout; Fraction entries divide in the rationals.
    """
    rows = a.tolist()
    n = len(rows)
    integral = all(isinstance(x, int) for row in rows for x in row)
    if not integral:
        rows = [[Fraction(x) for x in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - rows[i][k] * rows[k][j]
                rows[i][j] = num // prev if integral else num / prev
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, complex factors by their real and imaginary parts
    apart: numpy's vectorised complex multiply may fuse multiply-adds and
    round unlike the scalar product."""
    if a.dtype != complex:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _add_columns(out: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out plus the terms along their last axis, left to right as a scalar
    loop adds them: numpy's float reduction adds pairwise."""
    for t in range(terms.shape[-1]):
        out += terms[..., t]
    return out


def _minor_table(A: np.ndarray, p: int) -> np.ndarray:
    """All p-by-p minors of A (..., r, c), by lexicographic row and column
    p-subsets: shape (..., C(r, p), C(c, p)).  Level q expands level q - 1
    along the first row, left to right, so at p <= 3 a float minor is bit
    for bit the textbook cofactor formula."""
    if p == 0:
        return np.ones(A.shape[:-2] + (1, 1), dtype=A.dtype)
    r, c = A.shape[-2:]
    minors = A.copy()
    for q in range(2, p + 1):
        row_first, row_rest = (t[:, :1, None] for t in minor_table(r, q))
        column, rest = minor_table(c, q)
        terms = _product(A[..., row_first, column], minors[..., row_rest, rest])
        np.negative(terms[..., 1::2], out=terms[..., 1::2])
        minors = _add_columns(terms[..., 0].copy(), terms[..., 1:])
    return minors


@dataclass(frozen=True)
class CompoundMatrix:
    """Square array indexed by the ordered ``level``-subsets of {1..ambient}."""

    ambient: int
    level: int
    entries: np.ndarray

    def __post_init__(self):
        if not 0 <= self.level <= self.ambient:
            raise DomainError(f"level {self.level} outside 0..{self.ambient}")
        side = comb(self.ambient, self.level)
        arr = np.asarray(self.entries)
        if arr.shape[-2:] != (side, side) or arr.ndim < 2:
            raise DomainError(
                f"level-{self.level} compound at g={self.ambient} needs shape "
                f"({side}, {side}), got {arr.shape}"
            )
        if arr.dtype != object:
            arr = arr.astype(complex)
        object.__setattr__(self, "entries", arr)

    def scalar(self):
        if self.level not in (0, self.ambient):
            raise DomainError("scalar() only makes sense at level 0 or g")
        return self.entries[..., 0, 0]

    def __add__(self, other):
        if self.ambient != other.ambient or self.level != other.level:
            raise DomainError("compound matrices differ in ambient or level")
        return CompoundMatrix(self.ambient, self.level, self.entries + other.entries)

    def scale(self, c) -> "CompoundMatrix":
        return CompoundMatrix(self.ambient, self.level, self.entries * c)

    def max_abs(self) -> float:
        return float(max((abs(complex(x)) for x in self.entries.flat), default=0.0))


def scalar_compound(g: int, value) -> CompoundMatrix:
    """The level-0 compound holding a single scalar."""
    exact = isinstance(value, (int, Fraction))
    return CompoundMatrix(g, 0, np.array([[value]], dtype=object if exact else complex))


def zero_compound(g: int, level: int) -> CompoundMatrix:
    side = comb(g, level)
    return CompoundMatrix(g, level, np.zeros((side, side), dtype=complex))


def from_matrix(M: np.ndarray) -> CompoundMatrix:
    """Wrap an ordinary g-by-g matrix, or a stack of them, as a level-1 compound."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DomainError("expected a square matrix")
    return CompoundMatrix(M.shape[-1], 1, M)


def compound(M: np.ndarray, p: int) -> CompoundMatrix:
    """The level-p compound of M: all p-by-p minors in canonical order."""
    M = np.asarray(M)
    g = M.shape[-1]
    if not 1 <= p <= g:
        raise DomainError(f"compound level p={p} outside 1..{g}")
    return CompoundMatrix(g, p, _minor_table(M, p))


def cofactor_tensor(M: np.ndarray, k: int) -> CompoundMatrix:
    """Signed complementary minors of order g-k, indexed at level k.

    Level 0 holds det(M); the transpose of the level-1 tensor is the
    classical adjugate, so ``M @ cofactor_tensor(M, 1).entries.T`` equals
    det(M) times the identity.
    """
    M = np.asarray(M)
    g = M.shape[-1]
    if not 0 <= k < g:
        raise DomainError(f"cofactor level k={k} outside 0..{g - 1}")
    if k == 0:
        return CompoundMatrix(g, 0, _minor_table(M, g))
    return hodge_dual(compound(M, g - k))


def _box_unnormalized(A: CompoundMatrix, B: CompoundMatrix):
    """The box product of A and B times d = C(p+q, p), and d."""
    if A.ambient != B.ambient:
        raise DomainError("ambient sizes differ")
    g = A.ambient
    p, q = A.level, B.level
    if p + q > g:
        raise DomainError(f"levels {p}+{q} exceed ambient {g}")
    Ae, Be = A.entries, B.entries
    if not (_is_exact(Ae) and _is_exact(Be)):
        Ae, Be = np.asarray(Ae, dtype=complex), np.asarray(Be, dtype=complex)
    if p == 0:
        return CompoundMatrix(g, q, Be * Ae), 1
    if q == 0:
        return CompoundMatrix(g, p, Ae * Be), 1
    row_a, col_a, row_b, col_b, negative = box_table(g, p, q)
    side = comb(g, p + q)
    terms = _product(Ae[..., row_a, col_a], Be[..., row_b, col_b])
    np.negative(terms, out=terms, where=negative)
    if _is_exact(terms):
        out = terms.sum(axis=-1)
    else:
        out = _add_columns(np.zeros(terms.shape[:-1], dtype=complex), terms)
    return CompoundMatrix(g, p + q, out.reshape(out.shape[:-1] + (side, side))), comb(p + q, p)


def _normalized(X: CompoundMatrix, d: int) -> CompoundMatrix:
    """X / d: one exact division per entry, or a float scaling by 1 / d."""
    if d == 1:
        return X
    if _is_exact(X.entries):
        return CompoundMatrix(X.ambient, X.level, np.frompyfunc(_div_exact, 2, 1)(X.entries, d))
    return X.scale(1.0 / d)


def box_product(A: CompoundMatrix, B: CompoundMatrix) -> CompoundMatrix:
    """The symmetrized minor-mixing product taking levels (p, q) to p + q.

    Includes the 1 / C(p+q, p) normalization, so the repeated box power of a
    level-1 matrix reproduces its compound of the same order exactly.
    """
    return _normalized(*_box_unnormalized(A, B))


def box_many(factors) -> CompoundMatrix:
    """Left fold of the box product over a nonempty list of factors.

    Exact factors are folded unnormalized and divided by the product of the
    normalizations once; float factors are normalized at every step.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("box_many needs at least one factor")
    if not all(_is_exact(f.entries) for f in factors):
        return functools.reduce(box_product, factors)
    acc, denominator = factors[0], 1
    for f in factors[1:]:
        acc, d = _box_unnormalized(acc, f)
        denominator *= d
    return _normalized(acc, denominator)


def box_power(A: CompoundMatrix, k: int) -> CompoundMatrix:
    """k-fold box product of A with itself; k = 0 gives the scalar 1."""
    if k == 0:
        return scalar_compound(A.ambient, 1 if _is_exact(A.entries) else 1.0)
    return box_many([A] * k)


def hodge_dual(X: CompoundMatrix) -> CompoundMatrix:
    """Complementary-index twist: entry (I, J) becomes (-1)^{I+J} X[I^c, J^c]."""
    complement, negative = dual_table(X.ambient, X.level)
    out = X.entries[..., complement[:, None], complement]
    np.negative(out, out=out, where=negative)
    return CompoundMatrix(X.ambient, X.ambient - X.level, out)


def star_product(*factors: CompoundMatrix) -> CompoundMatrix:
    """Complementary-index companion of the box product.

    The box product of all factors (total level k) is formed first, then
    re-indexed by complements with the (-1)^{I+J} twist, landing at level
    g - k.  The star of g - k copies of a level-1 matrix equals its
    cofactor tensor of the complementary order.
    """
    if not factors:
        raise DomainError("star_product needs at least one factor")
    g = factors[0].ambient
    total = sum(f.level for f in factors)
    if total > g:
        raise DomainError(f"total level {total} exceeds ambient {g}")
    return hodge_dual(box_many(factors))


def wedge_coordinates(vectors) -> np.ndarray:
    """Coordinates of the wedge of k vectors in the complementary-index basis.

    Coordinate J (a (g-k)-subset) is the sign of the permutation (J, J^c)
    times the maximal minor of the row stack drawn from columns J^c.
    """
    A = np.asarray(vectors)
    if A.ndim < 2:
        raise DomainError("expected a stack of row vectors")
    k, g = A.shape[-2:]
    if k > g:
        raise DomainError(f"cannot wedge {k} vectors in dimension {g}")
    # the sign of (J, J^c) is (-1)^(sum J - |J|(|J|+1)/2): the dual's sign
    # between J and the first (g-k)-subset
    complement, negative = dual_table(g, k)
    coords = _minor_table(A, k)[..., 0, complement]
    if not _is_exact(coords):
        coords = coords.astype(complex)
    np.negative(coords, out=coords, where=negative[0])
    return coords


def wedge_outer(vectors) -> CompoundMatrix:
    """Outer product (no conjugation) of the wedge of k vectors with itself.

    Equals k! times the star product of the rank-one matrices v_i v_i^T.
    Linearly dependent vectors give the zero matrix.
    """
    w = wedge_coordinates(vectors)
    k, g = np.shape(vectors)[-2:]
    out = w[..., :, None] * w[..., None, :]
    # mirror the upper triangle so the result is symmetric bit-for-bit
    out = np.triu(out) + np.swapaxes(np.triu(out, 1), -1, -2)
    return CompoundMatrix(g, g - k, out)
