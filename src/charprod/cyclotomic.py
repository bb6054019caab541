"""Power-basis coefficient arithmetic in cyclotomic fields Q(zeta_e), and the
text format of one value.

A value of order e is written in the power basis 1, x, ..., x^(phi(e)-1) of
Q(zeta_e), reduced modulo the e-th cyclotomic polynomial.  The engine keeps
values as int64 coefficient arrays over a denominator (last axis: the basis)
and computes with the constant matrices below: products, complex conjugation
and embeddings into a multiple order are integer matrix products.

``matmul_exact`` is the one exact integer matrix product of the engine.  It
bounds every entry and partial sum by inner dimension x max|x| x max|y| and
refuses a bound of 2^63 or more with CharprodError, so no coefficient wraps
silently.  Below 2^53 it makes one float64 (BLAS) product: every partial sum
is then an integer that float64 holds exactly, in any summation order.
From 2^53 to 2^63 it makes numpy's int64 product, which no partial sum can
wrap.  Each float64 product runs in row blocks of at most ``BLAS_BLOCK``
multiply-adds.
``value_text``/``value_json`` write one value; ``Cyclotomic`` holds one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CharprodError


# -- elementary number theory ------------------------------------------------

@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization as a tuple of (p, multiplicity) pairs."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            m = 0
            while n % f == 0:
                n //= f
                m += 1
            out.append((f, m))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n):
    total = n
    for p, _ in factorize(n):
        total = total // p * (p - 1)
    return total


@lru_cache(maxsize=None)
def divisors(n):
    out = [1]
    for p, m in factorize(n):
        out = [d * p**k for d in out for k in range(m + 1)]
    return tuple(sorted(out))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_div_exact(a, b):
    """Exact division of integer polynomials (b monic up to sign not required)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(q) - 1, -1, -1):
        coeff, rem = divmod(a[i + len(b) - 1], lead)
        if rem:
            raise ArithmeticError("division not exact")
        q[i] = coeff
        if coeff:
            for j, bj in enumerate(b):
                a[i + j] -= coeff * bj
    if any(a[: len(b) - 1]):
        raise ArithmeticError("division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Coefficients of Phi_e, ascending degree, computed by integer division
    of x^e - 1 by the product of the proper-divisor cyclotomics."""
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]
    den = [1]
    for d in divisors(e):
        if d < e:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_div_exact(num, den))


# -- coefficient arrays ----------------------------------------------------------

def max_abs(x):
    return int(np.abs(x).max()) if x.size else 0


def int64_array(values):
    """Python integers as an int64 array; CharprodError when one reaches 2^63."""
    values = np.asarray(values, dtype=object)
    fits(max((abs(int(v)) for v in values.flat), default=0))
    return values.astype(np.int64)


def fits(bound):
    """Raise CharprodError unless ``bound``, a bound on every int64 entry and
    partial sum of the next step, is below 2^63.  ``matmul_exact`` checks
    its bound here and then runs one float64 product when it is below 2^53,
    or one int64 product when it lies between 2^53 and 2^63."""
    if bound >= 2**63:
        raise CharprodError("coefficient arithmetic could exceed 64 bits")


FLOAT_EXACT = 2**53  # float64 holds every integer of smaller magnitude
# Multiply-adds per float64 product call.  OpenBLAS runs a product of at
# most 4 x 65536 = 2^18 of them on the calling thread (its default
# GEMM_MULTITHREAD_THRESHOLD); a larger one may wake its worker threads,
# which then spin for up to about 0.1 s after the call: CPU time that the
# eigenspace split and the orthogonality check (one n x m x n product per
# embedding and prime, through ``_product``) would pay after every one of
# their medium-sized products, for little wall time.  A single row of more
# than 2^18 multiply-adds is still one call.
BLAS_BLOCK = 2**18


def matmul_exact(x, y):
    """x @ y for integer arrays, exact, as int64: the one exact integer matrix
    product of the engine.

    The bound n * max|x| * max|y| (n the inner dimension) covers every entry
    and partial sum; ``fits`` refuses it from 2^63 on with CharprodError.
    Below 2^53 the product is one float64 (BLAS) product: each partial sum
    is an integer below 2^53, which float64 holds exactly, so the result is
    exact in any summation order.  From 2^53 to 2^63 it is numpy's int64
    product, exact because no partial sum reaches 2^63."""
    return _product(*_operands(x, y))


def _operands(x, y):
    """x and y cast once for their exact product: float64 in C order when the
    bound n * max|x| * max|y| is below 2^53, else int64."""
    bound = x.shape[-1] * max_abs(x) * max_abs(y)
    fits(bound)
    dtype = np.float64 if bound < FLOAT_EXACT else np.int64
    return x.astype(dtype, order="C"), y.astype(dtype, order="C")


def _product(x, y):
    """x @ y as int64 for operands cast by ``_operands``, y 1-D or 2-D: one
    int64 product, or float64 products in row blocks of at most BLAS_BLOCK
    multiply-adds each."""
    if x.dtype == np.int64:
        return x @ y
    n = x.shape[-1]
    step = max(1, BLAS_BLOCK // max(1, n * (y.shape[1] if y.ndim == 2 else 1)))
    if x.size <= step * n:
        return (x @ y).astype(np.int64)
    rows = x.reshape(-1, n)
    out = np.empty((len(rows),) + y.shape[1:])
    for start in range(0, len(rows), step):
        np.matmul(rows[start:start + step], y, out=out[start:start + step])
    return out.reshape(x.shape[:-1] + y.shape[1:]).astype(np.int64)


@lru_cache(maxsize=None)
def _reduction_matrix(order, width):
    """Rows are x^k mod Phi_order for k < width, ascending k."""
    phi = euler_phi(order)
    poly = cyclotomic_polynomial(order)
    rows = []
    current = [0] * phi
    current[0] = 1
    for k in range(width):
        if k > 0:
            shifted = [0] + current[:-1]
            lead = current[-1]
            if lead:
                for j in range(phi):
                    shifted[j] -= lead * poly[j]
            current = shifted
        rows.append(list(current))
    out = np.array(rows, dtype=np.int64).reshape(width, phi)
    out.flags.writeable = False
    return out


def root_exponents(values, order):
    """Per value (last axis: its coefficients at ``order``), the k with
    value = zeta^k, or -1 when it is no power of zeta: its coefficient bytes
    looked up among the rows of ``_reduction_matrix(order, order)``."""
    exponent_of = {row.tobytes(): k for k, row in enumerate(_reduction_matrix(order, order))}
    flat = np.ascontiguousarray(values, dtype=np.int64).reshape(-1, values.shape[-1])
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel().tolist()
    return np.array([exponent_of.get(key, -1) for key in keys], dtype=np.int64).reshape(values.shape[:-1])


@lru_cache(maxsize=None)
def _product_matrix(order):
    """Row a * phi + b is x^(a+b) mod Phi_order: the flattened outer product of
    two coefficient vectors times this matrix is their product."""
    t = np.arange(euler_phi(order))
    out = _reduction_matrix(order, 2 * len(t) - 1)[np.add.outer(t, t).ravel()]
    out.flags.writeable = False
    return out


def multiply(x, y, order):
    """Coefficients of the products of the values x and y at ``order``, taken
    elementwise over the leading axes (last axis: the power basis)."""
    x, y = np.broadcast_arrays(x, y)
    fits(max_abs(x) * max_abs(y))
    outer = x[..., :, None] * y[..., None, :]
    return matmul_exact(outer.reshape(x.shape[:-1] + (x.shape[-1] ** 2,)), _product_matrix(order))


def gram(x, y, order):
    """Coefficients (i, j, phi) at ``order`` of sum over c of x[i, c] y[j, c]
    for values x (i, c, phi) and y (j, c, phi): the one exact sum over
    classes of the engine, in phi^2 slice products.  The orthogonality check
    of a square table decides its row relation at one prime instead, and
    calls this only for the residuals of a table that fails there.  Degree s
    sums slice a of x times slice b of y over a + b = s: one exact product
    per slice b against all slices a stacked, reduced modulo Phi_order once;
    exact by the checked bound on every partial sum and every coefficient:
    each degree sums at most phi c products, and each coefficient sums
    2 phi - 1 degrees times an entry of the reduction matrix."""
    ni, c, phi = x.shape
    nj = y.shape[0]
    red = _reduction_matrix(order, 2 * phi - 1)
    fits(len(red) * phi * c * max_abs(x) * max_abs(y) * max_abs(red))
    prod = np.zeros((2 * phi - 1, ni, nj), dtype=np.int64)
    xs, ys = _operands(x.transpose(2, 0, 1), y.transpose(2, 1, 0))
    for b in range(phi):
        prod[b:b + phi] += _product(xs, ys[b])
    del xs, ys  # frees the cast operands before the reduction
    return matmul_exact(prod.reshape(2 * phi - 1, ni * nj).T, red).reshape(ni, nj, phi)


@lru_cache(maxsize=None)
def _conjugation_matrix(order):
    """Row i is zeta^(-i) in the power basis: complex conjugation."""
    powers = _reduction_matrix(order, order)
    out = powers[[-i % order for i in range(euler_phi(order))]]
    out.flags.writeable = False
    return out


def conjugate(x, order):
    """Coefficients of the complex conjugates of the values x at ``order``."""
    return matmul_exact(x, _conjugation_matrix(order))


@lru_cache(maxsize=None)
def _embedding_matrix(order, target):
    """Row i is zeta_order^i = zeta_target^(i * target / order) at ``target``."""
    if target % order:
        raise ValueError(f"{order} does not divide {target}")
    step = target // order
    out = _reduction_matrix(target, target)[[i * step for i in range(euler_phi(order))]]
    out.flags.writeable = False
    return out


def embed(x, order, target):
    """Coefficients of the values x (at ``order``) at a multiple ``target``."""
    if target == order:
        return x
    return matmul_exact(x, _embedding_matrix(order, target))


# -- the text format of one value ------------------------------------------------

class Cyclotomic:
    """One value of Q(zeta_order), given by canonical coefficients: numerators
    in the power basis reduced modulo Phi_order, over a positive denominator
    sharing no factor with all of them, written through ``value_text``."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, num, den=1):
        self.order = order
        self.num = tuple(num)
        self.den = den

    def as_rational(self):
        """The value as a Fraction when rational, else None."""
        if not any(self.num[1:]):
            return Fraction(self.num[0], self.den)
        return None

    def as_integer(self):
        """The value as an int when it is a rational integer, else None.

        A None return is the not-an-integer signal, not a failure.
        """
        r = self.as_rational()
        if r is not None and r.denominator == 1:
            return int(r)
        return None

    def __eq__(self, other):
        """Equality with a rational, or with a value of the same order."""
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order != other.order:
            mine, theirs = self.as_rational(), other.as_rational()
            if mine is None or theirs is None:
                raise ValueError("values of different orders are compared at a common order")
            return mine == theirs
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        r = self.as_rational()
        return hash(r) if r is not None else hash((self.order, self.num, self.den))

    def to_text(self):
        return value_text(self.order, self.num, self.den)

    def to_json(self):
        return value_json(self.order, self.num, self.den)

    def __repr__(self):
        return f"Cyclotomic({self.to_text()})"


def value_text(order, num, den=1):
    """The text of the value with power-basis coefficients ``num`` (ints) over
    ``den``: a reduced fraction if rational, else z(order;c0,c1,...)."""
    if not any(num[1:]):
        return _frac_text(num[0], den)
    return f"z({order};{','.join(_frac_text(c, den) for c in num)})"


def value_json(order, num, den=1):
    """``value_text``, except that a rational integer is an int."""
    if not any(num[1:]) and num[0] % den == 0:
        return num[0] // den
    return value_text(order, num, den)


def format_distinct(coefficients, formatter):
    """formatter(vector) of every coefficient vector along the last axis, as
    nested lists of the leading shape, called once per distinct vector: in
    np.lexsort order a vector is new where it differs from the one before it."""
    flat = coefficients.reshape(-1, coefficients.shape[-1])
    ranks = np.lexsort(flat.T)
    new = np.r_[True, (flat[ranks[1:]] != flat[ranks[:-1]]).any(axis=1)]
    index = np.empty_like(ranks)
    index[ranks] = np.cumsum(new) - 1
    texts = np.array([formatter(v) for v in flat[ranks[new]].tolist()], dtype=object)
    return texts[index.reshape(coefficients.shape[:-1])].tolist()


def _frac_text(num, den):
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"
