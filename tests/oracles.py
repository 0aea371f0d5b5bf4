"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: determinants by
first-row cofactor recursion, signs by explicit inversion counting, set
predicates by brute-force enumeration.
"""

import itertools
import math
from fractions import Fraction


def laplace_det(rows):
    """Determinant by recursive first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = rows[0][col] * laplace_det(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


def det_of_array(arr):
    return laplace_det([list(row) for row in arr])


def inversion_sign(seq):
    seq = list(seq)
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def classify_triples(chars):
    """Brute-force azygetic / syzygetic classification of a set."""
    parities = set()
    for trip in itertools.combinations(chars, 3):
        mp = [sum(t.m_prime[i] for t in trip) % 2 for i in range(trip[0].g)]
        mpp = [sum(t.m_double_prime[i] for t in trip) % 2 for i in range(trip[0].g)]
        parities.add(sum(a * b for a, b in zip(mp, mpp)) % 2)
    return parities


def brute_essentially_independent(chars):
    chars = list(chars)
    for size in range(2, len(chars) + 1, 2):
        for combo in itertools.combinations(chars, size):
            mp = [sum(t.m_prime[i] for t in combo) % 2 for i in range(combo[0].g)]
            mpp = [
                sum(t.m_double_prime[i] for t in combo) % 2 for i in range(combo[0].g)
            ]
            if not any(mp) and not any(mpp):
                return False
    return True


def frac_matrix_from_ints(ints):
    import numpy as np

    g = len(ints)
    M = np.empty((g, g), dtype=object)
    for i in range(g):
        for j in range(g):
            M[i, j] = Fraction(int(ints[i][j]))
    return M


# ---------------------------------------------------------------------------
# compound-matrix algebra: the original scalar loops


def fraction_det(a):
    """Exact determinant by Gaussian elimination over Fractions."""
    n = a.shape[0]
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in a.tolist()]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / Fraction(rows[col][col])
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def _split_sign(sub, within):
    """(-1) to the sum of the 1-based positions of ``sub`` inside ``within``."""
    return -1 if sum(within.index(v) + 1 for v in sub) % 2 else 1


def loop_box_product(A, B):
    """Entries of the box product of two compounds, one scalar term at a time.

    For each output entry (H, K) it sums A[I, J] * B[H - I, K - J] with the
    sign of the positions of I in H and J in K, over the p-subsets I, J, in
    that order, then scales by 1 / C(p+q, p): a Fraction for exact entries.
    """
    import numpy as np

    g, p, q = A.ambient, A.level, B.level
    if p == 0:
        return B.scale(A.scalar()).entries
    if q == 0:
        return A.scale(B.scalar()).entries
    exact = A.entries.dtype == object and B.entries.dtype == object
    subsets = {k: list(itertools.combinations(range(1, g + 1), k)) for k in (p, q, p + q)}
    rank = {k: {s: i for i, s in enumerate(subs)} for k, subs in subsets.items()}
    side = len(subsets[p + q])
    out = np.empty((side, side), dtype=object if exact else complex)
    norm = Fraction(1, math.comb(p + q, p)) if exact else 1.0 / math.comb(p + q, p)
    for h, H in enumerate(subsets[p + q]):
        for k, K in enumerate(subsets[p + q]):
            acc = 0
            for I in itertools.combinations(H, p):
                Ic = tuple(i for i in H if i not in I)
                for J in itertools.combinations(K, p):
                    Jc = tuple(j for j in K if j not in J)
                    term = (
                        A.entries[rank[p][I], rank[p][J]] * B.entries[rank[q][Ic], rank[q][Jc]]
                    )
                    sign = _split_sign(I, H) * _split_sign(J, K)
                    acc = acc + (term if sign > 0 else -term)
            out[h, k] = acc * norm
    return out


def loop_box_many(factors):
    """Left fold of ``loop_box_product``, normalizing at every step."""
    from theta_forge.multilinear import CompoundMatrix

    acc = factors[0]
    for f in factors[1:]:
        acc = CompoundMatrix(acc.ambient, acc.level + f.level, loop_box_product(acc, f))
    return acc.entries


# ---------------------------------------------------------------------------
# radius selection: the original scalar loop, one radius at a time


def loop_one_dim_sums(lam, b, half_offset, radius, weighted, span=64):
    """Full and tail sums of the per-coordinate envelope at one radius."""
    import numpy as np

    from theta_forge.errors import ConvergenceError

    u = 0.5 if half_offset else 0.0
    total = 0.0
    tail = 0.0
    for j in range(-span, span + 1):
        x = j + u
        w = (2.0 + 2.0 * np.pi * x * x) if weighted else 1.0
        term = w * np.exp(-np.pi * lam * x * x + 2.0 * np.pi * b * abs(x))
        total += term
        if abs(x) > radius:
            tail += term
    edge = (2.0 + 2.0 * np.pi * span**2) * np.exp(
        -np.pi * lam * span**2 + 2.0 * np.pi * b * span
    )
    if edge > 1e-30:
        raise ConvergenceError("tail bound unreliable: envelope too flat")
    return total, tail


def loop_tail_bound(lam, b, m_prime, radius, weighted):
    per_coord = [loop_one_dim_sums(lam, b, u == 1, radius, weighted) for u in m_prime]
    bound = 0.0
    for i in range(len(per_coord)):
        prod = per_coord[i][1]
        for j in range(len(per_coord)):
            if j != i:
                prod *= per_coord[j][0]
        bound += prod
    return bound


def loop_choose_radius(lam, b, m_prime, policy, weighted, max_radius=24):
    """Raise the radius from 1 until the bound clears target_tol / 20."""
    from theta_forge.errors import ConvergenceError

    goal = policy.target_tol / 20.0
    radius = 1
    while radius <= max_radius:
        bound = loop_tail_bound(lam, b, m_prime, radius, weighted)
        if bound < goal:
            return radius, bound
        radius += 1
    raise ConvergenceError(f"no radius <= {max_radius} reaches the goal")


def box_sum(tau, z, m_prime, m_double, radius):
    """Theta value, z-gradient and weighted tau-derivative summed directly
    over the box of shifted lattice points with |coordinate| <= radius.

    Also returns, per slot, the sum of |weight * term| over the box, the
    scale of the rounding error of any sum of these terms.
    """
    import numpy as np

    g = len(m_prime)
    n = np.arange(-radius, radius + 1, dtype=float)
    P = np.stack([a.ravel() for a in np.meshgrid(*([n] * g), indexing="ij")], axis=1)
    P = P + np.asarray(m_prime, dtype=float) / 2.0
    y = np.asarray(z, dtype=complex) + np.asarray(m_double, dtype=float) / 2.0
    w = 0.5 * np.einsum("na,ab,nb->n", P, tau, P) + P @ y
    terms = np.exp(2j * np.pi * w)
    value = terms.sum()
    grad = 2j * np.pi * (P * terms[:, None]).sum(axis=0)
    dtau = 1j * np.pi * np.einsum("n,na,nb->ab", terms, P, P)
    mag = np.abs(terms)
    abs_sums = (
        mag.sum(),
        2 * np.pi * (np.abs(P) * mag[:, None]).sum(axis=0),
        np.pi * np.einsum("n,na,nb->ab", mag, np.abs(P), np.abs(P)),
    )
    return (value, grad, dtau), abs_sums
