"""Integral symplectic matrices, Siegel points, and theta characteristics.

Group elements are stored as exact integer matrices (Python ints, so long
generator words never overflow) and validated against the defining block
relation on construction.  Congruence-subgroup membership is exact integer
arithmetic.  The module imports nothing from the package but its errors.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalDegeneracyError

_COND_LIMIT = 1e12


def _as_object_matrix(M) -> np.ndarray:
    src = np.asarray(M, dtype=object)
    arr = np.empty(src.shape, dtype=object)
    arr.flat[:] = integer_entries(src.flat, "symplectic matrix")
    arr.setflags(write=False)
    return arr


def symplectic_form(g: int) -> np.ndarray:
    """The block matrix (0, 1; -1, 0) defining the symplectic relation."""
    J = np.zeros((2 * g, 2 * g), dtype=object)
    for i in range(g):
        J[i, g + i] = 1
        J[g + i, i] = -1
    return J


@dataclass(frozen=True)
class SymplecticElement:
    """An integral 2g-by-2g matrix in block form (A, B; C, D)."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _as_object_matrix(self.mat)
        n = arr.shape[0]
        if arr.ndim != 2 or arr.shape[1] != n or n % 2:
            raise DomainError("symplectic matrix must be square of even size")
        g = n // 2
        J = symplectic_form(g)
        if not (arr.T @ J @ arr == J).all():
            raise DomainError("matrix does not satisfy the symplectic relation")
        object.__setattr__(self, "mat", arr)

    @classmethod
    def from_blocks(cls, A, B, C, D) -> "SymplecticElement":
        A, B, C, D = (np.asarray(x) for x in (A, B, C, D))
        top = np.hstack([A, B])
        bot = np.hstack([C, D])
        return cls(np.vstack([top, bot]))

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        return cls(np.eye(2 * g, dtype=int))

    @property
    def g(self) -> int:
        return self.mat.shape[0] // 2

    @property
    def A(self) -> np.ndarray:
        return self.mat[: self.g, : self.g]

    @property
    def B(self) -> np.ndarray:
        return self.mat[: self.g, self.g :]

    @property
    def C(self) -> np.ndarray:
        return self.mat[self.g :, : self.g]

    @property
    def D(self) -> np.ndarray:
        return self.mat[self.g :, self.g :]

    def __matmul__(self, other: "SymplecticElement") -> "SymplecticElement":
        return SymplecticElement(self.mat @ other.mat)

    def __eq__(self, other):
        return isinstance(other, SymplecticElement) and (self.mat == other.mat).all()

    def __hash__(self):
        return hash(tuple(int(x) for x in self.mat.flat))

    def to_json(self) -> dict:
        blocks = {
            name: [[int(x) for x in row] for row in block.tolist()]
            for name, block in (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D))
        }
        return {"g": self.g, **blocks}

    @classmethod
    def from_json(cls, data: dict) -> "SymplecticElement":
        """The element of ``to_json``; ``DomainError`` unless ``data`` is an
        object whose blocks "A" to "D" are integer matrices that fit."""
        try:
            return cls.from_blocks(data["A"], data["B"], data["C"], data["D"])
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"a group element needs integer blocks 'A' to 'D': {exc!r}") from None


@dataclass(frozen=True)
class SiegelPoint:
    """A g-by-g complex symmetric matrix with positive definite imaginary part."""

    tau: np.ndarray

    def __post_init__(self):
        arr = np.array(self.tau, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise DomainError("tau must be a nonempty square matrix")
        if not np.isfinite(arr).all():
            raise DomainError("tau has an entry that is not finite")
        if np.max(np.abs(arr - arr.T)) > 1e-12 * max(1.0, np.max(np.abs(arr))):
            raise DomainError("tau is not symmetric to 1e-12")
        try:
            np.linalg.cholesky(arr.imag)
        except np.linalg.LinAlgError:
            raise DomainError("imaginary part of tau is not positive definite") from None
        arr.setflags(write=False)
        object.__setattr__(self, "tau", arr)

    @property
    def g(self) -> int:
        return self.tau.shape[0]

    def __eq__(self, other):
        return isinstance(other, SiegelPoint) and np.array_equal(self.tau, other.tau)

    def __hash__(self):
        return hash(self.tau.tobytes())

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "re": self.tau.real.tolist(),
            "im": self.tau.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SiegelPoint":
        """The point of ``to_json``; ``DomainError`` unless ``data`` is an
        object whose "re" and "im" are real arrays that broadcast together."""
        try:
            re, im = np.broadcast_arrays(np.asarray(data["re"], dtype=float),
                                         np.asarray(data["im"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"a point needs real arrays 're' and 'im': {exc!r}") from None
        # set, not multiplied by 1j: 1j * inf would turn the real part into nan
        tau = re.astype(complex)
        tau.imag = im
        return cls(tau)


def integer_entries(values, what) -> tuple[int, ...]:
    """The entries of ``values`` as Python ints (bools and numpy integers
    count as integers); ``DomainError`` if one is not an integer, which
    ``int`` alone would truncate without a word."""
    values = tuple(values)
    try:
        ints = tuple(int(x) for x in values)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise DomainError(f"{what} entries must be integers, got {values}")
    return ints


@dataclass(frozen=True)
class Characteristic:
    """A theta characteristic (m', m'') with entries normalized to 0/1."""

    m_prime: tuple[int, ...]
    m_double_prime: tuple[int, ...]

    def __post_init__(self):
        mp = integer_entries(self.m_prime, "characteristic")
        mpp = integer_entries(self.m_double_prime, "characteristic")
        if len(mp) != len(mpp):
            raise DomainError("characteristic halves differ in length")
        if any(x not in (0, 1) for x in mp + mpp):
            raise DomainError("characteristic entries must be 0 or 1")
        object.__setattr__(self, "m_prime", mp)
        object.__setattr__(self, "m_double_prime", mpp)

    @property
    def g(self) -> int:
        return len(self.m_prime)

    @property
    def is_odd(self) -> bool:
        return parity(self) == 1

    @property
    def is_even(self) -> bool:
        return parity(self) == 0

    def __add__(self, other: "Characteristic") -> "Characteristic":
        return Characteristic(
            tuple((a + b) % 2 for a, b in zip(self.m_prime, other.m_prime)),
            tuple((a + b) % 2 for a, b in zip(self.m_double_prime, other.m_double_prime)),
        )

    def label(self) -> str:
        return "".join(map(str, self.m_prime)) + "|" + "".join(map(str, self.m_double_prime))


def parity(m: Characteristic) -> int:
    """0 for even characteristics, 1 for odd ones (the dot product mod 2)."""
    return sum(a * b for a, b in zip(m.m_prime, m.m_double_prime)) % 2


@lru_cache(maxsize=None)
def all_characteristics(g: int) -> tuple[Characteristic, ...]:
    """All 4^g normalized characteristics, lexicographic in (m', m'')."""
    bits = list(itertools.product((0, 1), repeat=g))
    return tuple(
        Characteristic(mp, mpp) for mp in bits for mpp in bits
    )


@lru_cache(maxsize=None)
def odd_characteristics(g: int) -> tuple[Characteristic, ...]:
    return tuple(m for m in all_characteristics(g) if m.is_odd)


@lru_cache(maxsize=None)
def even_characteristics(g: int) -> tuple[Characteristic, ...]:
    return tuple(m for m in all_characteristics(g) if m.is_even)


def act_on_tau(gamma: SymplecticElement, point: SiegelPoint) -> SiegelPoint:
    """The fractional-linear action (A tau + B)(C tau + D)^{-1}."""
    g = gamma.g
    if g != point.g:
        raise DomainError("genus mismatch between gamma and tau")
    M = gamma.mat.astype(float)
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    tau = point.tau
    den = C @ tau + D
    if np.linalg.cond(den) > _COND_LIMIT:
        raise NumericalDegeneracyError("C tau + D is numerically singular")
    res = np.linalg.solve(den.T, (A @ tau + B).T).T
    res = (res + res.T) / 2  # exact result is symmetric; kill roundoff skew
    return SiegelPoint(res)


_GROUP_RE = re.compile(r"^Gamma\((\d+)(?:,(\d+))?\)$")


def membership(gamma: SymplecticElement, group: str) -> bool:
    """Exact congruence membership test.

    ``group`` is one of "Sp", "Gamma(n)" or "Gamma(n,2n)"; any other spec
    is a ``DomainError``.
    """
    if group == "Sp":
        return True  # construction already enforced the symplectic relation
    match = _GROUP_RE.match(group.replace(" ", ""))
    if not match:
        raise DomainError(f"unknown group spec {group!r}")
    n = int(match.group(1))
    if n < 1:
        raise DomainError(f"group level must be positive in {group!r}")
    two_n = match.group(2)
    g = gamma.g
    eye = np.eye(2 * g, dtype=object)
    if not ((gamma.mat - eye) % n == 0).all():
        return False
    if two_n is not None:
        if int(two_n) != 2 * n:
            raise DomainError(f"unsupported group spec {group!r}")
        diag_b = np.diag(gamma.B)
        diag_c = np.diag(gamma.C)
        if not all(int(x) % (2 * n) == 0 for x in diag_b):
            return False
        if not all(int(x) % (2 * n) == 0 for x in diag_c):
            return False
    return True


def _sym_basis(g: int) -> list[np.ndarray]:
    out = []
    for i in range(g):
        E = np.zeros((g, g), dtype=int)
        E[i, i] = 1
        out.append(E)
    for i in range(g):
        for j in range(i + 1, g):
            E = np.zeros((g, g), dtype=int)
            E[i, j] = E[j, i] = 1
            out.append(E)
    return out


@lru_cache(maxsize=None)
def _generator_pool(group: str, g: int) -> tuple[SymplecticElement, ...]:
    levels = {"Gamma(2)": (2, 2), "Gamma(2,4)": (2, 4), "Gamma(4,8)": (4, 8)}
    if group not in levels:
        raise DomainError(f"no generator pool for group {group!r}")
    n, diag_mod = levels[group]
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    pool = []
    for E in _sym_basis(g):
        # diagonal basis elements carry the stronger diagonal congruence
        S = (diag_mod if np.trace(E) else n) * E
        for sign in (1, -1):
            pool.append(SymplecticElement.from_blocks(eye, sign * S, zero, eye))
            pool.append(SymplecticElement.from_blocks(eye, zero, sign * S, eye))
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            U = eye.copy()
            U[i, j] = n
            Uinv = eye.copy()
            Uinv[i, j] = -n
            pool.append(SymplecticElement.from_blocks(Uinv.T, zero, zero, U))
    if n == 2:
        # sign flips lie in Gamma(2) and Gamma(2,4) but not Gamma(4,8);
        # they reach both values of the squared multiplier character
        for i in range(g):
            U = eye.copy()
            U[i, i] = -1
            pool.append(SymplecticElement.from_blocks(U, zero, zero, U))
    return tuple(pool)


def generate_subgroup_element(
    group: str, g: int, seed: int, word_length: int
) -> SymplecticElement:
    """A deterministic pseudo-random word in explicit generators of ``group``.

    Supported groups: Gamma(2), Gamma(2,4), Gamma(4,8).  The product of the
    generators' integer matrices is validated once (products of symplectic
    matrices are symplectic) and its membership asserted (exact arithmetic),
    so a bug in the pool cannot leak elements outside the group.
    """
    pool = _generator_pool(group, g)
    rng = np.random.default_rng([seed, g, word_length, len(pool)])
    word = np.eye(2 * g, dtype=int)
    for _ in range(word_length):
        word = word @ pool[int(rng.integers(len(pool)))].mat
    word = SymplecticElement(word)
    assert membership(word, group)
    return word


def phi_rational(m: Characteristic, gamma: SymplecticElement) -> Fraction:
    """The exact rational exponent of the classical theta multiplier term.

    All summands have denominator dividing 8, so the value is returned as a
    Fraction and only exponentiated at the last moment.
    """
    if gamma.g != m.g:
        raise DomainError("genus mismatch")
    A, B, C, D = gamma.A, gamma.B, gamma.C, gamma.D
    mp = np.array(m.m_prime, dtype=object)
    mpp = np.array(m.m_double_prime, dtype=object)
    t1 = int(mp @ (B.T @ D) @ mp)
    t2 = int(mpp @ (A.T @ C) @ mpp)
    t3 = int(mp @ (B.T @ C) @ mpp)
    t4 = int(np.diag(A @ B.T) @ (D @ mp - C @ mpp))
    return Fraction(-(t1 + t2 - 2 * t3), 8) + Fraction(t4, 4)


def phi_factor(m: Characteristic, gamma: SymplecticElement) -> complex:
    """exp(2 pi i phi) for the exact rational phi of the multiplier term."""
    q = phi_rational(m, gamma)
    num = q.numerator * (8 // q.denominator) % 8
    return np.exp(2j * np.pi * num / 8)


def sample_siegel_point(g: int, rng: np.random.Generator) -> SiegelPoint:
    """Random base point with smallest eigenvalue of the imaginary part >= 1/2.

    Real part entries are uniform in [-1/2, 1/2]; the imaginary part is
    L^T L + 1/2 identity for a random L.
    """
    X = rng.uniform(-0.5, 0.5, (g, g))
    X = (X + X.T) / 2
    L = rng.standard_normal((g, g)) / np.sqrt(g)
    Y = L.T @ L + 0.5 * np.eye(g)
    return SiegelPoint(X + 1j * Y)


def load_siegel_point(path: str) -> SiegelPoint:
    """The point stored at ``path``: ``OSError`` if it cannot be read,
    ``DomainError`` if it does not hold the JSON of a point."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise DomainError(f"not JSON: {exc}") from None
    return SiegelPoint.from_json(data)
