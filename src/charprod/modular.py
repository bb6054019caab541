"""Modular arithmetic helpers: prime search, roots of unity mod q, and dense
GF(q) linear algebra used by the character table solver.

Everything here is exact integer arithmetic; numpy arrays hold int64 residues.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import factorize, matmul_exact


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin to the bases of the primes up to 37, deterministic below
    3.18 x 10^23 (Sorenson and Webster 2017); trial division above."""
    if n >= 318665857834031151167461:
        return factorize(n) == ((n, 1),)
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def find_prime(multiple_of, floor):
    """Smallest prime q with q = 1 (mod multiple_of) and q > floor."""
    q = floor + 1
    if multiple_of > 1:
        q += (1 - q) % multiple_of
    else:
        multiple_of = 1
    while not is_prime(q):
        q += multiple_of
    return q


def inv_mod(a, q):
    return pow(int(a), q - 2, q)


def primitive_root(q):
    """Smallest primitive root of the prime q."""
    if q == 2:
        return 1
    primes = [p for p, _ in factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in primes):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")


def nth_root_of_unity(q, e):
    """A fixed primitive e-th root of unity mod q (requires e | q - 1)."""
    if (q - 1) % e:
        raise ValueError(f"{e} does not divide {q - 1}")
    return pow(primitive_root(q), (q - 1) // e, q)


# -- dense linear algebra over GF(q) ------------------------------------------

def rref_mod(matrix, q):
    """Row-reduced echelon form; returns (rref, pivot column list).  Each pivot
    clears its column with one outer-product update of the rows it touches."""
    m = np.array(matrix, dtype=np.int64) % q
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        m[r] = m[r] * inv_mod(m[r, c], q) % q
        col = m[:, c].copy()
        col[r] = 0
        others = np.flatnonzero(col)
        m[others] = (m[others] - np.outer(col[others], m[r])) % q
        pivots.append(c)
    return m, pivots


def nullspace_mod(matrix, q):
    """Canonical basis of the right null space, as the columns of a matrix,
    and its free columns: the basis rows at the free columns form the
    identity."""
    m, pivots = rref_mod(matrix, q)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((m.shape[1], free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -m[: len(pivots), free] % q
    return basis, free


def solve_columns_mod(b, pivots, target, q):
    """Solve b @ x = target (columns) over GF(q) for an echelon basis b, whose
    rows at ``pivots`` form the identity: x is target at those rows.
    ArithmeticError when a target column lies outside the span."""
    x = target[pivots] % q
    if not np.array_equal(matmul_exact(b, x) % q, target % q):
        raise ArithmeticError("inconsistent system: target outside the span")
    return x


def hessenberg_mod(matrix, q):
    h = np.array(matrix, dtype=np.int64) % q
    n = h.shape[0]
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1:, c])[0]
        if nz.size == 0:
            continue
        sel = c + 1 + int(nz[0])
        if sel != c + 1:
            h[[c + 1, sel]] = h[[sel, c + 1]]
            h[:, [c + 1, sel]] = h[:, [sel, c + 1]]
        inv = inv_mod(h[c + 1, c], q)
        for r in range(c + 2, n):
            f = h[r, c] * inv % q
            if f:
                h[r] = (h[r] - f * h[c + 1]) % q
                h[:, c + 1] = (h[:, c + 1] + f * h[:, r]) % q
    return h


def charpoly_mod(matrix, q):
    """Characteristic polynomial mod q, ascending coefficients, monic."""
    h = hessenberg_mod(matrix, q)
    n = h.shape[0]
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] + list(prev)  # x * p_{m-1}
        d = int(h[m - 1, m - 1]) % q
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - d * c) % q
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * h[i, i - 1] % q
            coeff = int(h[i - 1, m - 1]) * prod % q
            if coeff:
                pi = polys[i - 1]
                for j, c in enumerate(pi):
                    cur[j] = (cur[j] - coeff * c) % q
        polys.append([c % q for c in cur])
    return polys[n]


def poly_roots_mod(poly, q):
    """All roots in GF(q), ascending, found by a full scan with Horner."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(poly):
        vals = (vals * xs + int(c)) % q
    return [int(r) for r in np.nonzero(vals == 0)[0]]
