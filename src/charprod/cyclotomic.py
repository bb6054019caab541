"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value of order e is stored as the canonical residue modulo the e-th
cyclotomic polynomial in the power basis 1, x, ..., x^(phi(e)-1), with integer
numerators over one positive denominator.  Canonical form is unique, so
equality is coefficient-wise once orders agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


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


@lru_cache(maxsize=None)
def moebius(n):
    result = 1
    for _, m in factorize(n):
        if m > 1:
            return 0
        result = -result
    return result


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


@lru_cache(maxsize=None)
def _trace_table(e):
    """Normalized traces of the power basis: Tr(zeta_e^i) / phi(e)."""
    out = []
    for i in range(euler_phi(e)):
        g = math.gcd(i, e)
        f = e // g
        out.append(Fraction(moebius(f), euler_phi(f)))
    return tuple(out)


# -- the field element ---------------------------------------------------------

class Cyclotomic:
    """Immutable element of Q(zeta_e) in canonical form."""

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order, num, den=1, _canonical=False):
        if _canonical:
            self.order = order
            self.num = num
            self.den = den
        else:
            order = int(order)
            if order < 1:
                raise ValueError("order must be positive")
            reduced = _reduce(list(num), int(den), order)
            self.order, self.num, self.den = reduced
        self._hash = None

    # construction helpers

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def zero(cls, order=1):
        return cls(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order=1):
        num = [0] * euler_phi(order)
        num[0] = 1
        return cls(order, num, 1)

    @property
    def coeffs(self):
        """Canonical coefficients as exact rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # ring structure

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return None, None
        if self.order == other.order:
            return self, other
        e = math.lcm(self.order, other.order)
        return self.embed(e), other.embed(e)

    def __add__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        num = [fa * x + fb * y for x, y in zip(a.num, b.num)]
        return Cyclotomic(a.order, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.num), self.den, _canonical=True)

    def __sub__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, _poly_mul(a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported; use conj for roots of unity")
        result = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self):
        """Complex conjugation: the Galois map zeta_e -> zeta_e^(-1)."""
        e = self.order
        num = [0] * e
        for i, c in enumerate(self.num):
            num[(e - i) % e] += c
        return Cyclotomic(e, num, self.den)

    # predicates and coercions

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        """The value as a Fraction when rational, else None."""
        if self.is_rational():
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

    def norm_squared(self):
        """z * conj(z); a totally nonnegative real value."""
        return self * self.conj()

    # order changes

    def embed(self, order):
        """The same value viewed in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        step = order // self.order
        num = [0] * (len(self.num) * step)
        for i, c in enumerate(self.num):
            num[i * step] = c
        return Cyclotomic(order, num, self.den)

    def reduce_to(self, order):
        """Express the value in Q(zeta_order) (order | self.order), else None."""
        if order == self.order:
            return self
        if self.order % order:
            raise ValueError(f"{order} does not divide {self.order}")
        basis = [root_of_unity(order, k).embed(self.order) for k in range(euler_phi(order))]
        target = self.coeffs
        rows = len(self.num)
        matrix = [[b.coeffs[r] for b in basis] for r in range(rows)]
        solution = _solve_exact(matrix, target)
        if solution is None:
            return None
        den = _lcm_den(solution)
        return Cyclotomic(order, [f.numerator * (den // f.denominator) for f in solution], den)

    def minimal(self):
        """The equal value at the smallest possible cyclotomic order."""
        for d in divisors(self.order):
            reduced = self.reduce_to(d)
            if reduced is not None:
                return reduced
        return self

    # comparisons

    def __eq__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Embedding-invariant: rationals hash as Fractions, everything else by
        # normalized traces of z and |z|^2 (equal values in different orders agree).
        if self._hash is None:
            r = self.as_rational()
            if r is not None:
                self._hash = hash(r)
            else:
                self._hash = hash((self._normalized_trace(), self.norm_squared()._normalized_trace()))
        return self._hash

    def _normalized_trace(self):
        table = _trace_table(self.order)
        total = Fraction(0)
        for c, t in zip(self.num, table):
            if c:
                total += c * t
        return total / self.den

    # rendering

    def to_text(self):
        r = self.as_rational()
        if r is not None:
            return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        body = ",".join(_frac_text(c, self.den) for c in self.num)
        return f"z({self.order};{body})"

    def to_json(self):
        r = self.as_rational()
        if r is not None and r.denominator == 1:
            return int(r)
        return self.to_text()

    def approx(self):
        """Complex float approximation, display only (never used in decisions)."""
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                angle = 2.0 * math.pi * i / self.order
                total += c * complex(math.cos(angle), math.sin(angle))
        return total / self.den

    def __repr__(self):
        return f"Cyclotomic({self.to_text()})"


def _frac_text(num, den):
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _lcm_den(fractions):
    return math.lcm(*(f.denominator for f in fractions)) if fractions else 1


def _reduce(num, den, e):
    """Canonicalize a polynomial in zeta_e with integer coefficients over den."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    # fold exponents modulo e, then reduce modulo Phi_e
    if len(num) > e:
        folded = [0] * e
        for i, c in enumerate(num):
            folded[i % e] += c
        num = folded
    phi = euler_phi(e)
    poly = cyclotomic_polynomial(e)
    for i in range(len(num) - 1, phi - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(phi):
                num[i - phi + j] -= c * poly[j]
    num = num[:phi]
    num.extend([0] * (phi - len(num)))
    g = den
    for c in num:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [c // g for c in num]
    return e, tuple(num), den


def _solve_exact(matrix, target):
    """Solve matrix @ x = target over Q; None when inconsistent.

    matrix is rows x cols with cols <= rows and full column rank.
    """
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    aug = [[Fraction(matrix[r][c]) for c in range(cols)] + [Fraction(target[r])] for r in range(rows)]
    pivot_row = 0
    pivots = []
    for col in range(cols):
        sel = next((r for r in range(pivot_row, rows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        inv = 1 / aug[pivot_row][col]
        aug[pivot_row] = [v * inv for v in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    if pivot_row < cols:
        raise ArithmeticError("basis matrix not of full column rank")
    for r in range(pivot_row, rows):
        if aug[r][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = aug[r][cols]
    return solution


def root_of_unity(e, k):
    """zeta_e^k in canonical form."""
    if e < 1:
        raise ValueError("order must be positive")
    k %= e
    num = [0] * (k + 1)
    num[k] = 1
    return Cyclotomic(e, num, 1)


def from_text(text):
    """Parse the to_text rendering back into a value."""
    text = text.strip()
    if text.startswith("z(") and text.endswith(")"):
        head, _, body = text[2:-1].partition(";")
        order = int(head)
        coeffs = [Fraction(part) for part in body.split(",")] if body else []
        den = _lcm_den(coeffs)
        return Cyclotomic(order, [f.numerator * (den // f.denominator) for f in coeffs], den)
    value = Fraction(text)
    return Cyclotomic.from_rational(value)
