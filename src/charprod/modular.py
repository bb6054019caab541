"""Modular arithmetic helpers: prime search, roots of unity mod q, and dense
GF(q) linear algebra used by the character table solver.

Everything here is exact integer arithmetic; numpy arrays hold int64 residues.
"""

from __future__ import annotations

import numpy as np


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
    factors = []
    n = q - 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")


def nth_root_of_unity(q, e):
    """A fixed primitive e-th root of unity mod q (requires e | q - 1)."""
    if (q - 1) % e:
        raise ValueError(f"{e} does not divide {q - 1}")
    return pow(primitive_root(q), (q - 1) // e, q)


# -- dense linear algebra over GF(q) ------------------------------------------

def rref_mod(matrix, q):
    """Row-reduced echelon form; returns (rref, pivot column list)."""
    m = np.array(matrix, dtype=np.int64) % q
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        m[r] = m[r] * inv_mod(m[r, c], q) % q
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace_mod(matrix, q):
    """Canonical basis of the right null space, as columns of a matrix."""
    m, pivots = rref_mod(matrix, q)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-m[r, fc]) % q
    return basis


def solve_columns_mod(b, target, q):
    """Solve b @ x = target (columns) over GF(q); b has full column rank."""
    rows, k = b.shape
    aug = np.concatenate([b % q, target % q], axis=1)
    m, pivots = rref_mod(aug, q)
    if pivots[:k] != list(range(k)):
        raise ArithmeticError("basis matrix lost column rank")
    if len(pivots) > k:
        raise ArithmeticError("inconsistent system: target outside the span")
    return m[:k, k:].copy()


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


def matmul_mod(a, b, q):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % q
