"""Independent brute-force oracles used by the tests.

These deliberately avoid the engine's algorithms: permutation arithmetic on
image tuples and a full multiplication table instead of base-image keys,
closure by set-products instead of breadth-first search (plus a one-element-
at-a-time breadth-first closure fixing the element order), conjugacy by
full-group conjugation, normal subgroups as join-closures of class unions,
and character tables extracted from the exact lattice of characters induced
from cyclic subgroups (certified by decomposing the regular character).
Cyclotomic values are computed one at a time on Python integers
(``ExactCyclotomic``) instead of the engine's int64 coefficient arrays.
Signs of real cyclotomic values are decided by interval arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from charprod.charops import ClassFunction
from charprod.cyclotomic import (
    Cyclotomic,
    _poly_mul,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    factorize,
)
from charprod.perm import Permutation


# -- exact cyclotomic arithmetic, one value at a time -----------------------------


@lru_cache(maxsize=None)
def moebius(n):
    result = 1
    for _, m in factorize(n):
        if m > 1:
            return 0
        result = -result
    return result


@lru_cache(maxsize=None)
def _trace_table(e):
    """Normalized traces of the power basis: Tr(zeta_e^i) / phi(e)."""
    out = []
    for i in range(euler_phi(e)):
        f = e // math.gcd(i, e)
        out.append(Fraction(moebius(f), euler_phi(f)))
    return tuple(out)


class ExactCyclotomic(Cyclotomic):
    """An element of Q(zeta_e) with the field operations, computed one value at
    a time on Python integers: the exact reference for the engine's
    coefficient arrays.  The constructor reduces any integer polynomial in
    zeta_e over a denominator to canonical form."""

    __slots__ = ("_hash",)

    def __init__(self, order, num, den=1):
        order = int(order)
        if order < 1:
            raise ValueError("order must be positive")
        super().__init__(*_reduce(list(num), int(den), order))
        self._hash = None

    @classmethod
    def of(cls, value):
        """The exact value of an int, a Fraction or a Cyclotomic."""
        if isinstance(value, Cyclotomic):
            return value if isinstance(value, cls) else cls(value.order, value.num, value.den)
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
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = ExactCyclotomic.of(other)
        else:
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
        return ExactCyclotomic(a.order, [fa * x + fb * y for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return ExactCyclotomic(self.order, [-c for c in self.num], self.den)

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
        return ExactCyclotomic(a.order, _poly_mul(a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported; use conj for roots of unity")
        result = ExactCyclotomic.one(self.order)
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
        return ExactCyclotomic(e, num, self.den)

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

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
        return ExactCyclotomic(order, num, self.den)

    def reduce_to(self, order):
        """Express the value in Q(zeta_order) (order | self.order), else None."""
        if order == self.order:
            return self
        if self.order % order:
            raise ValueError(f"{order} does not divide {self.order}")
        basis = [root_of_unity(order, k).embed(self.order) for k in range(euler_phi(order))]
        matrix = [[b.coeffs[r] for b in basis] for r in range(len(self.num))]
        solution = _solve_exact(matrix, self.coeffs)
        if solution is None:
            return None
        den = _lcm_den(solution)
        return ExactCyclotomic(order, [f.numerator * (den // f.denominator) for f in solution], den)

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
        total = Fraction(0)
        for c, t in zip(self.num, _trace_table(self.order)):
            if c:
                total += c * t
        return total / self.den

    def approx(self):
        """Complex float approximation, display only."""
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                angle = 2.0 * math.pi * i / self.order
                total += c * complex(math.cos(angle), math.sin(angle))
        return total / self.den


def exact(value):
    """Shorthand for ExactCyclotomic.of."""
    return ExactCyclotomic.of(value)


def exact_values(f):
    """The values of a ClassFunction as ExactCyclotomic objects."""
    return tuple(exact(v) for v in f.values)


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
    g = math.gcd(den, *num)
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
    return ExactCyclotomic(e, num, 1)


def from_text(text):
    """Parse the to_text rendering back into a value."""
    text = text.strip()
    if text.startswith("z(") and text.endswith(")"):
        head, _, body = text[2:-1].partition(";")
        coeffs = [Fraction(part) for part in body.split(",")] if body else []
        den = _lcm_den(coeffs)
        return ExactCyclotomic(int(head), [f.numerator * (den // f.denominator) for f in coeffs], den)
    return ExactCyclotomic.of(Fraction(text))


def induce_by_summation(f, ctx):
    """Induction by the raw Frobenius sum over the whole parent group, on
    exact values: an independent cross-check of the engine's classwise form."""
    parent = ctx.parent
    values = exact_values(f)
    out = []
    for cls in parent.classes:
        total = ExactCyclotomic.zero()
        for x in range(parent.order):
            si = ctx.from_parent.get(parent.conjugate(cls.representative, x))
            if si is not None:
                total = total + values[ctx.group.class_of[si]]
        out.append(total * Fraction(1, ctx.group.order))
    return ClassFunction(parent, out)


def compose(p, q):
    """The product pq: q acts first."""
    return Permutation(p.images[i] for i in q.images)


def inverse(p):
    images = [0] * p.degree
    for i, j in enumerate(p.images):
        images[j] = i
    return Permutation(images)


def power(p, k):
    result = Permutation.identity(p.degree)
    step = p if k >= 0 else inverse(p)
    for _ in range(abs(k)):
        result = compose(result, step)
    return result


def order(p):
    """Least k >= 1 with p^k the identity, by repeated composition."""
    identity = Permutation.identity(p.degree)
    k, current = 1, p
    while current != identity:
        k, current = k + 1, compose(current, p)
    return k


def closure_reference(gens):
    """Breadth-first closure on image tuples: every element in order times
    every generator in order, new products appended.  The element order the
    engine's level-by-level closure must reproduce."""
    identity = Permutation.identity(gens[0].degree)
    elements, seen = [identity], {identity}
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for g in gens:
            nxt = compose(current, g)
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return elements


def closure_oracle(gens):
    """Set-product fixpoint closure (not breadth-first)."""
    degree = gens[0].degree
    current = {Permutation.identity(degree)} | set(gens)
    while True:
        nxt = set(current)
        for a in current:
            for b in gens:
                nxt.add(compose(a, b))
        if len(nxt) == len(current):
            return current
        current = nxt


@lru_cache(maxsize=4)
def cayley_table(group):
    """mul[a][b] = index of x_a x_b, by composing the elements' image tuples
    and looking the product up by its full image tuple."""
    elements = [group.element(i).images for i in range(group.order)]
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple([a[i] for i in b])] for b in elements] for a in elements]


def class_constants_oracle(group):
    """a[i][j][k] = #{(x, y) in C_i x C_j : xy = z_k}, counting all pairs."""
    mul = cayley_table(group)
    m = group.num_classes
    class_of_rep = {c.representative: k for k, c in enumerate(group.classes)}
    out = [[[0] * m for _ in range(m)] for _ in range(m)]
    for x, row in enumerate(mul):
        for y, z in enumerate(row):
            k = class_of_rep.get(z)
            if k is not None:
                out[group.class_of[x]][group.class_of[y]][k] += 1
    return out


def conjugacy_oracle(group):
    """Partition by conjugating with every group element."""
    seen = [False] * group.order
    classes = []
    for i in range(group.order):
        if seen[i]:
            continue
        orbit = sorted({group.conjugate(i, g) for g in range(group.order)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    return classes


def class_closure(group, class_indices, _memo=None):
    """Subgroup closure of a union of classes, as a frozenset of classes."""
    key = frozenset(class_indices)
    if _memo is not None and key in _memo:
        return _memo[key]
    mul = cayley_table(group)
    members = {0}
    for j in key:
        members.update(group.classes[j].members)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        snapshot = list(members)
        for b in snapshot:
            for c in (mul[x][b], mul[b][x]):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    result = frozenset(group.class_of[i] for i in members)
    if _memo is not None:
        _memo[key] = result
        _memo[result] = result
    return result


def normal_lattice_oracle(group):
    """All class-union subgroups: join-closure of the single-class closures."""
    memo = {}
    singles = {class_closure(group, [j], memo) for j in range(group.num_classes)}
    singles.add(frozenset({0}))
    found = set(singles)
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found):
                if a <= b or b <= a:
                    continue
                joined = class_closure(group, a | b, memo)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return found


def normal_powerset_oracle(group):
    """Literal scan of every union of classes; only for tiny class counts."""
    m = group.num_classes
    assert m <= 14, "powerset oracle is for small groups"
    mul = cayley_table(group)
    out = set()
    for mask in range(1 << m):
        if not mask & 1:
            continue
        classes = [j for j in range(m) if mask >> j & 1]
        members = set()
        for j in classes:
            members.update(group.classes[j].members)
        if all(mul[a][b] in members for a in members for b in members):
            out.add(frozenset(classes))
    return out


# -- exact table oracle ----------------------------------------------------------


def _inner(group, a, b):
    total = ExactCyclotomic.zero()
    for cls, av, bv in zip(group.classes, a, b):
        term = av * bv.conj()
        if term:
            total = total + cls.size * term
    r = (total * Fraction(1, group.order)).as_rational()
    assert r is not None, "oracle inner product must be rational"
    return r


def _induce_from(group, sub_elements, values_by_element):
    """Frobenius induction by raw summation over the whole group."""
    mul = cayley_table(group)
    inv = [row.index(0) for row in mul]
    out = []
    for cls in group.classes:
        rep = cls.representative
        total = ExactCyclotomic.zero()
        for x, row in enumerate(mul):
            y = mul[row[rep]][inv[x]]
            if y in values_by_element:
                total = total + values_by_element[y]
        out.append(total * Fraction(1, len(sub_elements)))
    return tuple(out)


def _cyclic_induced_pool(group):
    """1_G plus every character induced from a linear character of a cyclic
    subgroup, deduplicated."""
    pool = {}

    def add(values):
        key = tuple((v.order, v.num, v.den) for v in values)
        if key not in pool:
            pool[key] = tuple(values)

    add(tuple(ExactCyclotomic.one() for _ in group.classes))
    seen_subgroups = set()
    mul = cayley_table(group)
    for x in range(1, group.order):
        powers = [0]
        current = x
        while current != 0:
            powers.append(current)
            current = mul[current][x]
        sub = frozenset(powers)
        if sub in seen_subgroups:
            continue
        seen_subgroups.add(sub)
        o = len(powers)
        for j in range(o):
            values_by_element = {
                powers[k]: root_of_unity(o, j * k) for k in range(o)
            }
            add(_induce_from(group, sub, values_by_element))
    return list(pool.values())


def _pointwise(a, b):
    return tuple(x * y for x, y in zip(a, b))


def _abelian_dual(mul, identity, elements):
    """Characters of an abelian group given by its multiplication, built by
    extending along a chain of cyclic steps; element -> exponent maps, one E."""

    def order_of(x):
        n, acc = 1, x
        while acc != identity:
            acc = mul(acc, x)
            n += 1
        return n

    elements = sorted(elements)
    exponent = 1
    for x in elements:
        o = order_of(x)
        exponent = exponent * o // _gcd(exponent, o)
    chars = [{identity: 0}]
    for x in elements:
        if x in chars[0]:
            continue
        powers = [x]
        current = x
        while current not in chars[0]:
            current = mul(current, x)
            powers.append(current)
        o_x = len(powers)  # minimal t with x^t in the current span
        base_elt = powers[-1]
        step = exponent // o_x
        new_chars = []
        for lam in chars:
            a = lam[base_elt]
            assert a % o_x == 0, "abelian extension not solvable (oracle bug)"
            b0 = a // o_x
            for j in range(o_x):
                b = (b0 + j * step) % exponent
                ext = dict(lam)
                for h, vh in lam.items():
                    for t in range(1, o_x):
                        ext[mul(h, powers[t - 1])] = (vh + t * b) % exponent
                new_chars.append(ext)
        chars = new_chars
    return exponent, chars


def _abelian_linear_characters(group, elements):
    mul = cayley_table(group)
    return _abelian_dual(lambda a, b: mul[a][b], 0, elements)


def _linear_character_pool(group):
    """All linear characters of the group: the dual of the abelianization,
    computed from scratch (all-pairs commutators, coset multiplication)."""
    mul = cayley_table(group)
    inv = [row.index(0) for row in mul]
    commutators = set()
    for a in range(group.order):
        for b in range(group.order):
            commutators.add(mul[mul[inv[a]][inv[b]]][mul[a][b]])
    derived = {0}
    frontier = list(commutators)
    while frontier:
        x = frontier.pop()
        if x in derived:
            continue
        derived.add(x)
        for y in list(derived):
            for z in (mul[x][y], mul[y][x]):
                if z not in derived:
                    frontier.append(z)
    coset_of = {}
    reps = []
    for i in range(group.order):
        if i in coset_of:
            continue
        rep = len(reps)
        reps.append(i)
        for d in derived:
            coset_of[mul[i][d]] = rep

    def coset_mul(a, b):
        return coset_of[mul[reps[a]][reps[b]]]

    exponent, chars = _abelian_dual(coset_mul, 0, range(len(reps)))
    out = []
    for lam in chars:
        out.append(tuple(
            root_of_unity(exponent, lam[coset_of[cls.representative]])
            for cls in group.classes
        ))
    return out


def _abelian_subgroup_pool(group, limit_triples):
    """Characters induced from linear characters of abelian subgroups
    generated by commuting pairs (and triples on small groups)."""
    seen = set()
    out = []
    candidates = []
    n = group.order
    mul = cayley_table(group)
    for a in range(1, n):
        for b in range(a + 1, n):
            if mul[a][b] == mul[b][a]:
                candidates.append((a, b))
    if limit_triples:
        for a in range(1, n):
            for b in range(a + 1, n):
                if mul[a][b] != mul[b][a]:
                    continue
                for c in range(b + 1, n):
                    if (mul[a][c] == mul[c][a]
                            and mul[b][c] == mul[c][b]):
                        candidates.append((a, b, c))
    for gens in candidates:
        members = group.subgroup(gens).element_set
        if members in seen:
            continue
        seen.add(members)
        exponent, chars = _abelian_linear_characters(group, members)
        for lam in chars:
            values_by_element = {h: root_of_unity(exponent, e) for h, e in lam.items()}
            out.append(_induce_from(group, members, values_by_element))
    return out


def _hnf_with_track(rows, track):
    """Integer row HNF; carries a transformation record alongside."""
    rows = [list(r) for r in rows]
    track = [list(t) for t in track]
    n_rows = len(rows)
    cols = len(rows[0])
    pivot_row = 0
    for col in range(cols):
        while True:
            nonzero = [r for r in range(pivot_row, n_rows) if rows[r][col]]
            if not nonzero:
                break
            sel = min(nonzero, key=lambda r: abs(rows[r][col]))
            rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
            track[pivot_row], track[sel] = track[sel], track[pivot_row]
            p = rows[pivot_row][col]
            done = True
            for r in range(pivot_row + 1, n_rows):
                if rows[r][col]:
                    f = rows[r][col] // p
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
                    track[r] = [a - f * b for a, b in zip(track[r], track[pivot_row])]
                    if rows[r][col]:
                        done = False
            if done:
                break
        if any(rows[r][col] for r in range(pivot_row, n_rows)):
            pivot_row += 1
        if pivot_row == n_rows:
            break
    return rows[:pivot_row], track[:pivot_row]


def _ldl(gram):
    """LDL^T of a positive definite rational matrix."""
    n = len(gram)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            s = gram[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            if i == j:
                assert s > 0, "gram matrix not positive definite"
                diag[i] = s
                lower[i][i] = Fraction(1)
            else:
                lower[i][j] = s / diag[j]
    return lower, diag


def _norm_one_vectors(gram):
    """All integer vectors u with u^T gram u == 1, up to sign."""
    import math as _math

    lower, diag = _ldl(gram)
    n = len(gram)
    solutions = []

    def recurse(k, u, remaining):
        if k < 0:
            if remaining == 0:
                solutions.append(tuple(u))
            return
        # quadratic in u_k: diag[k] * (u_k + mu)^2 <= remaining
        mu = sum(lower[j][k] * u[j] for j in range(k + 1, n))
        center = -mu
        cand = _math.floor(center)
        while diag[k] * (cand + mu) ** 2 <= remaining:
            u[k] = cand
            recurse(k - 1, u, remaining - diag[k] * (cand + mu) ** 2)
            cand -= 1
        cand = _math.floor(center) + 1
        while diag[k] * (cand + mu) ** 2 <= remaining:
            u[k] = cand
            recurse(k - 1, u, remaining - diag[k] * (cand + mu) ** 2)
            cand += 1
        u[k] = 0

    recurse(n - 1, [0] * n, Fraction(1))
    dedup = set()
    out = []
    for u in solutions:
        if any(u):
            canon = max(u, tuple(-x for x in u))
            if canon not in dedup:
                dedup.add(canon)
                out.append(u)
    return out


def canonical_key(values):
    """Order-independent comparison key for a tuple of cyclotomic values."""
    out = []
    for v in values:
        m = exact(v).minimal()
        out.append((m.order, m.num, m.den))
    return tuple(out)


def brute_force_table(group):
    """Irreducible characters from the lattice of induced characters.

    Finds every norm-one positive-degree vector in the integral span and
    certifies the result by decomposing the regular character exactly.
    Returns a list of value tuples sorted by (degree, value key).  The pool
    starts from cyclic subgroups and widens (abelian subgroups, then pairwise
    products) when the plain pool does not reach the full character lattice.
    """
    pool = _cyclic_induced_pool(group)
    keys = {canonical_key(f) for f in pool}
    for lam in _linear_character_pool(group):
        key = canonical_key(lam)
        if key not in keys:
            keys.add(key)
            pool.append(lam)
    try:
        return _extract_irreducibles(group, list(pool))
    except AssertionError:
        pass
    for extra in _abelian_subgroup_pool(group, limit_triples=group.order <= 16):
        key = canonical_key(extra)
        if key not in keys:
            keys.add(key)
            pool.append(extra)
    try:
        return _extract_irreducibles(group, list(pool))
    except AssertionError:
        pass
    base = list(pool)
    for i in range(len(base)):
        for j in range(i, len(base)):
            prod = _pointwise(base[i], base[j])
            key = canonical_key(prod)
            if key not in keys:
                keys.add(key)
                pool.append(prod)
    return _extract_irreducibles(group, pool)


def _extract_irreducibles(group, pool):
    m = group.num_classes
    gram_cache = {}

    def inner(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in gram_cache:
            gram_cache[key] = _inner(group, pool[key[0]], pool[key[1]])
        return gram_cache[key]

    basis = []
    for idx in range(len(pool)):
        trial = basis + [idx]
        g = [[inner(a, b) for b in trial] for a in trial]
        det = _det(g)
        if det != 0:
            basis = trial
            if len(basis) == m:
                break
    assert len(basis) == m, "induced characters failed to span the class functions"

    gram_basis = [[inner(a, b) for b in basis] for a in basis]
    inv = _invert(gram_basis)
    coord_rows = []
    for idx in range(len(pool)):
        rhs = [inner(idx, b) for b in basis]
        coord_rows.append([sum(inv[r][c] * rhs[c] for c in range(m)) for r in range(m)])
    denom = 1
    for row in coord_rows:
        for v in row:
            denom = denom * v.denominator // _gcd(denom, v.denominator)
    int_rows = [[int(v * denom) for v in row] for row in coord_rows]
    track = [[1 if k == idx else 0 for k in range(len(pool))] for idx in range(len(pool))]
    hnf_rows, hnf_track = _hnf_with_track(int_rows, track)
    assert len(hnf_rows) == m, "lattice rank dropped during reduction"

    lattice_gram = []
    for r1 in range(m):
        row = []
        for r2 in range(m):
            total = Fraction(0)
            for i, ci in enumerate(hnf_track[r1]):
                if ci:
                    for j, cj in enumerate(hnf_track[r2]):
                        if cj:
                            total += ci * cj * inner(i, j)
            row.append(total)
        lattice_gram.append(row)

    found = []
    for u in _norm_one_vectors(lattice_gram):
        combo = [0] * len(pool)
        for k, uk in enumerate(u):
            if uk:
                for i, c in enumerate(hnf_track[k]):
                    combo[i] += uk * c
        values = None
        for i, c in enumerate(combo):
            if c:
                part = tuple(v * c for v in pool[i])
                values = part if values is None else tuple(a + b for a, b in zip(values, part))
        degree = values[0].as_rational()
        if degree < 0:
            values = tuple(-v for v in values)
        found.append(values)
    assert len(found) == m, f"norm-one extraction found {len(found)} of {m} characters"

    # certificate: orthonormality and the regular character decomposition
    for i in range(m):
        for j in range(i, m):
            assert _inner(group, found[i], found[j]) == (1 if i == j else 0)
    regular = [ExactCyclotomic.of(group.order)] + [ExactCyclotomic.zero()] * (m - 1)
    total = [ExactCyclotomic.zero()] * m
    for values in found:
        d = values[0]
        for c in range(m):
            total[c] = total[c] + d * values[c]
    assert all(total[c] == regular[c] for c in range(m)), "regular character certificate failed"

    def sort_key(values):
        return (values[0].as_rational(), tuple((v.order, v.num, v.den) for v in values))

    return sorted(found, key=sort_key)


def _det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if m[r][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _invert(matrix):
    n = len(matrix)
    aug = [
        [Fraction(matrix[r][c]) for c in range(n)]
        + [Fraction(1 if k == r else 0) for k in range(n)]
        for r in range(n)
    ]
    for c in range(n):
        sel = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[sel] = aug[sel], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def rref_reference(matrix, q):
    """Reduced row echelon form over GF(q) on Python integers, one row
    operation at a time; returns (rows, pivot columns)."""
    m = [[int(v) % q for v in row] for row in matrix]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [v * inv % q for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def is_nonnegative_real(value):
    """Decide value >= 0 for a real cyclotomic value.

    Rational values are compared exactly; irrational ones through interval
    arithmetic with widening precision (sound: a real irrational is nonzero,
    so some precision separates it from zero).
    """
    value = exact(value)
    if value != value.conj():
        return False
    r = value.as_rational()
    if r is not None:
        return r >= 0
    e = value.order
    for prec in (80, 160, 320, 640, 1280):
        with mpmath.workprec(prec):
            total = mpmath.iv.mpf(0)
            iv_pi = mpmath.iv.pi
            for i, c in enumerate(value.num):
                if c:
                    total += c * mpmath.iv.cos(2 * iv_pi * i / e)
            total /= value.den
            if total.a > 0:
                return True
            if total.b < 0:
                return False
    raise ArithmeticError("interval precision exhausted deciding sign")
